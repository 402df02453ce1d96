/**
 * @file
 * The line reader (util/line_reader.hh) and the seven text formats
 * read through it.
 *
 *  - the reader's comment rule, error prefixes, checked numbers and
 *    duplicate keys;
 *  - platform and workload values, booleans and names, and the checks
 *    after the last line, each naming its file (and line);
 *  - a seeded mutation fuzz of every reader: each format's writer
 *    output (a fixed text for the availability trace, which has no
 *    writer) is mutated line- and token-wise with hostile tokens, and
 *    every input must parse or raise a FatalError that begins with its
 *    source, carrying ` line <n>: ` unless it is one of the format's
 *    whole-file checks. Any other exception fails; the sanitizer
 *    builds run it too (`ctest -L parse`).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "gen/workload_file.hh"
#include "res/fault_model.hh"
#include "scen/scenario.hh"
#include "sim/platform_file.hh"
#include "trace/trace_io.hh"
#include "util/counter_rng.hh"
#include "util/line_reader.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim {
namespace {

/** Every line `text` hands a LineReader, as "n: tok|tok|...". */
std::vector<std::string>
linesOf(const std::string &text)
{
    std::istringstream in(text);
    LineReader reader(in, "t");
    std::vector<std::string> seen;
    reader.forEachLine([&] {
        std::string line = std::to_string(reader.line()) + ":";
        for (std::size_t i = 0; i < reader.size(); ++i)
            line += (i ? "|" : " ") + reader[i];
        seen.push_back(line);
    });
    return seen;
}

/** The message of the FatalError `body` raises; "none" if none. */
std::string
errorOf(const std::function<void()> &body)
{
    try {
        body();
    } catch (const FatalError &err) {
        return err.what();
    }
    return "none";
}

TEST(LineReaderTest, AHashThatBeginsATokenCommentsOutTheRest)
{
    EXPECT_EQ(linesOf("# header\n\n  at 5 recover all  # repaired\n"
                      "a#b c #d e\n#\n   # indented\nlast\n"),
              (std::vector<std::string>{"3: at|5|recover|all",
                                        "4: a#b|c", "7: last"}));

    // A magic line is matched before the rule, then numbering goes on.
    std::istringstream in("#MAGIC 1\n# comment\nx\n");
    LineReader reader(in, "m");
    reader.expectMagic("#MAGIC 1");
    std::size_t line = 0;
    reader.forEachLine([&] { line = reader.line(); });
    EXPECT_EQ(line, 3u);

    std::istringstream wrong("#MAGIC 2\n");
    LineReader other(wrong, "m");
    EXPECT_EQ(errorOf([&] { other.expectMagic("#MAGIC 1"); }),
              "m line 1: expected '#MAGIC 1'");
}

TEST(LineReaderTest, ErrorsCarryTheSourceAndLine)
{
    std::istringstream in("one\n\ntwo three\n");
    LineReader reader(in, "src");
    EXPECT_EQ(errorOf([&] {
                  reader.forEachLine([&] {
                      if (reader.size() == 2)
                          reader.expectTokens(3, "two <a> <b>");
                  });
              }),
              "src line 3: expected `two <a> <b>`, got 2 fields");
    EXPECT_EQ(errorOf([&] { reader.token(2, "b"); }), "missing b");
    EXPECT_EQ(errorOf([&] { reader.check([] { fatal("whole"); }); }),
              "src: whole");
    EXPECT_EQ(errorOf([&] { reader.check([] { fatal("about"); }, 1); }),
              "src line 1: about");
}

TEST(LineReaderTest, KeyValueSplitsAtTheFirstEqualsAndClaimsTheKey)
{
    std::istringstream in("name = a b = c  # note\nk=v\nname = again\n");
    LineReader reader(in, "kv");
    std::vector<std::pair<std::string, std::string>> pairs;
    EXPECT_EQ(errorOf([&] {
                  reader.forEachLine(
                      [&] { pairs.push_back(reader.keyValue()); });
              }),
              "kv line 3: duplicate key 'name' (first set on line 1)");
    using Pairs = std::vector<std::pair<std::string, std::string>>;
    EXPECT_EQ(pairs, (Pairs{{"name", "a b = c"}, {"k", "v"}}));
    EXPECT_EQ(reader.seenLine("k"), 2u);
    EXPECT_EQ(reader.seenLine("absent"), 0u);

    std::istringstream bare("novalue\n");
    LineReader no_eq(bare, "kv");
    EXPECT_EQ(errorOf([&] {
                  no_eq.forEachLine([&] { no_eq.keyValue(); });
              }),
              "kv line 1: expected 'key = value', got 'novalue'");
}

TEST(LineReaderTest, NumbersAreReadAsExactlyTheirType)
{
    EXPECT_EQ(parseNumber<int>("-2147483648"), -2147483648LL);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              18446744073709551615ULL);
    EXPECT_EQ(parseNumber<double>("1e-3"), 1e-3);
    EXPECT_EQ(errorOf([] { parseNumber<int>("2147483648"); }),
              "value '2147483648' out of range");
    EXPECT_EQ(errorOf([] { parseNumber<std::uint64_t>("-1"); }),
              "negative value '-1'");
    EXPECT_EQ(errorOf([] { parseNumber<std::int64_t>("5ns"); }),
              "cannot parse '5ns' as a number");
    EXPECT_EQ(errorOf([] { parseNumber<int>(""); }),
              "cannot parse '' as a number");
    EXPECT_EQ(errorOf([] { parseNumber<double>("+1"); }),
              "cannot parse '+1' as a number");
    EXPECT_EQ(errorOf([] { parseNumber<double>("nan"); }),
              "value 'nan' is not finite");
    EXPECT_EQ(errorOf([] { parseNumber<double>("-inf"); }),
              "value '-inf' is not finite");
    EXPECT_EQ(errorOf([] { parseNumber<double>("1e999"); }),
              "value '1e999' out of range");
    EXPECT_EQ(errorOf([] { parseNumber<double>("-2", Sign::nonNegative); }),
              "negative value '-2'");
    EXPECT_EQ(errorOf([] { parseNumber<int>("0", Sign::positive); }),
              "value '0' must be positive");
    EXPECT_EQ(parseNumber<double>("0", Sign::nonNegative), 0.0);
}

/** `key = value` lines of `text`, 1-based, with their keys. */
std::vector<std::pair<std::size_t, std::string>>
keyLines(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::string>> keys;
    const auto lines = split(text, '\n');
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto eq = lines[i].find('=');
        if (eq != std::string::npos)
            keys.emplace_back(i + 1, trim(lines[i].substr(0, eq)));
    }
    return keys;
}

/** `text` with line `n` (1-based) replaced by `line`. */
std::string
withLine(const std::string &text, std::size_t n, const std::string &line)
{
    auto lines = split(text, '\n');
    lines[n - 1] = line;
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i)
        out += (i ? "\n" : "") + lines[i];
    return out;
}

std::string
platformText()
{
    std::ostringstream out;
    sim::writePlatformConfig(sim::platforms::defaultCluster(), out);
    return out.str();
}

std::string
platformError(const std::string &text)
{
    std::istringstream in(text);
    return errorOf([&] { sim::readPlatformConfig(in, "p"); });
}

std::string
workloadText()
{
    std::ostringstream out;
    gen::writeWorkloadConfig(gen::WorkloadConfig{}, out);
    return out.str();
}

std::string
workloadError(const std::string &text)
{
    std::istringstream in(text);
    return errorOf([&] { gen::readWorkloadConfig(in, "w"); });
}

TEST(KeyValueFileTest, ABadPlatformNumberNamesTheFileAndLine)
{
    EXPECT_EQ(platformError("name = typo\nbandwidth_mbps = 12q\n"),
              "p line 2: cannot parse '12q' as a number");
}

TEST(KeyValueFileTest, EveryNumericKeyNamesTheFileAndLine)
{
    const std::vector<std::string> words = {
        "name", "kind", "force_eager_isend", "collective_model",
        "topology", "torus_wrap"};
    const auto check = [&](const std::string &text, const char *source,
                           auto &&error) {
        for (const auto &[n, key] : keyLines(text)) {
            if (std::find(words.begin(), words.end(), key) != words.end())
                continue;
            for (const std::string bad : {"12q", ""}) {
                EXPECT_EQ(error(withLine(text, n, key + " = " + bad)),
                          strformat("%s line %zu: cannot parse '%s' as "
                                    "a number",
                                    source, n, bad.c_str()));
            }
        }
    };
    check(platformText(), "p", platformError);
    check(workloadText(), "w", workloadError);
}

TEST(KeyValueFileTest, BooleansAndNamesNameTheFileAndLine)
{
    EXPECT_EQ(platformError("force_eager_isend = maybe\n"),
              "p line 1: parseBool: cannot parse 'maybe' as boolean");
    EXPECT_EQ(platformError("name = x\ntorus_wrap = 2\n"),
              "p line 2: parseBool: cannot parse '2' as boolean");
    EXPECT_NE(platformError("collective_model = magic\n")
                  .find("p line 1: unknown collective model 'magic'"),
              std::string::npos);
    EXPECT_NE(platformError("topology = ring\n")
                  .find("p line 1: unknown topology name 'ring'"),
              std::string::npos);
    EXPECT_NE(platformError("collective_algorithm_fold = ring\n")
                  .find("p line 1: unknown collective op 'fold'"),
              std::string::npos);
    EXPECT_NE(platformError("collective_algorithm_allreduce = twirl\n")
                  .find("p line 1: unknown collective algorithm"),
              std::string::npos);
    EXPECT_EQ(workloadError("name = x\nkind = bogus\n"),
              "w line 2: unknown workload kind 'bogus' (expected "
              "stencil, ml-training, fan-in or dht)");
}

TEST(KeyValueFileTest, ChecksAfterTheLastLineNameTheFile)
{
    EXPECT_EQ(platformError("cpus_per_node = 0\n"),
              "p: platform: cpus_per_node must be positive");
    EXPECT_EQ(workloadError("name = tiny\nranks = 1\n"),
              "w: workload 'tiny': key 'ranks' must be at least 2, "
              "got 1");
}

TEST(KeyValueFileTest, EachFaultProcessIsCheckedOnItsOwnLine)
{
    std::istringstream in("seed = 3\n\nprocess node 0 stall mtbf_us 5\n");
    EXPECT_EQ(errorOf([&] { res::readFaultModel(in, "f"); }),
              "f line 3: fault model: recoverable processes need a "
              "positive and finite mttr_us (process node 0 stall "
              "mtbf_us 5 mttr_us 0)");
    // The target grammar is the scenario's; a route is refused here.
    std::istringstream route("process route 0 1 fail-stop mtbf_us 5\n");
    EXPECT_EQ(errorOf([&] { res::readFaultModel(route, "f"); }),
              "f line 1: fault model: processes target a node, a link "
              "or the whole machine (process route 0 1 fail-stop "
              "mtbf_us 5 mttr_us 0)");
}

/** The hostile tokens mutations replace or insert. */
const std::array<std::string, 16> hostile = {
    "-1", "0", "2147483648", "4294967296", "9223372036854775808",
    "18446744073709551616", "-9223372036854775809", "nan", "inf",
    "1e308", "1e-320", "", "#", "=", "x", "5ns"};

/** Mutations per format, in every build. */
constexpr std::uint64_t mutationsPerFormat = 10'000;

/**
 * `base` with one to three seeded mutations: delete, duplicate, swap
 * or truncate lines; replace, drop or insert a hostile token.
 */
std::string
mutate(const std::string &base, CounterRng rng)
{
    auto lines = split(base, '\n');
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.nextBelow(n));
    };
    const std::uint64_t count = 1 + rng.nextBelow(3);
    for (std::uint64_t m = 0; m < count; ++m) {
        const auto at = static_cast<std::ptrdiff_t>(pick(lines.size()));
        std::string &line = lines[static_cast<std::size_t>(at)];
        auto tokens = split(line, ' ');
        const auto tok = static_cast<std::ptrdiff_t>(pick(tokens.size()));
        switch (rng.nextBelow(7)) {
          case 0:
            if (lines.size() > 1)
                lines.erase(lines.begin() + at);
            continue;
          case 1:
            lines.insert(lines.begin() + at, std::string(line));
            continue;
          case 2:
            std::swap(line, lines[pick(lines.size())]);
            continue;
          case 3:
            line.resize(pick(line.size() + 1));
            continue;
          case 4:
            tokens[static_cast<std::size_t>(tok)] =
                hostile[pick(hostile.size())];
            break;
          case 5:
            tokens.erase(tokens.begin() + tok);
            break;
          default:
            tokens.insert(tokens.begin() + tok,
                          hostile[pick(hostile.size())]);
            break;
        }
        line.clear();
        for (std::size_t i = 0; i < tokens.size(); ++i)
            line += (i ? " " : "") + tokens[i];
    }
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i)
        out += (i ? "\n" : "") + lines[i];
    return out;
}

struct Format
{
    std::string source;
    std::string base;
    /** Read one text named `source`; throws what the reader throws. */
    std::function<void(std::istream &, const std::string &)> read;
    /** Messages a check after the last line may raise with no line. */
    std::vector<std::string> wholeFile;
};

/**
 * Read `mutationsPerFormat` mutants of the format's base text. Each
 * must parse or raise a FatalError that begins with its source, and
 * one that names no line must be a whole-file check.
 */
void
fuzz(const Format &format, std::uint64_t key)
{
    {
        std::istringstream in(format.base);
        ASSERT_NO_THROW(format.read(in, format.source)) << format.base;
    }
    std::size_t parsed = 0;
    std::size_t lined = 0;
    std::size_t whole = 0;
    std::size_t wrong = 0;
    for (std::uint64_t i = 0; i < mutationsPerFormat; ++i) {
        const std::string text = mutate(format.base, CounterRng(key, i));
        std::string problem;
        try {
            std::istringstream in(text);
            format.read(in, format.source);
            ++parsed;
        } catch (const FatalError &err) {
            const std::string what = err.what();
            const std::string lead = format.source + " line ";
            std::size_t stop = lead.size();
            while (stop < what.size() && std::isdigit(
                       static_cast<unsigned char>(what[stop])))
                ++stop;
            if (what.starts_with(lead) && stop > lead.size() &&
                what.compare(stop, 2, ": ") == 0) {
                ++lined;
            } else if (what.starts_with(format.source + ": ") &&
                       std::any_of(format.wholeFile.begin(),
                                   format.wholeFile.end(),
                                   [&](const std::string &w) {
                                       return what.compare(
                                                  format.source.size() + 2,
                                                  w.size(), w) == 0;
                                   })) {
                ++whole;
            } else {
                problem = "FatalError naming no source and line: " + what;
            }
        } catch (const std::exception &err) {
            problem = std::string("unexpected exception: ") + err.what();
        }
        if (!problem.empty() && ++wrong <= 5) {
            ADD_FAILURE() << format.source << " mutation " << i << ": "
                          << problem << "\n--- input ---\n"
                          << text;
        }
    }
    std::printf("%s: %zu mutations, %zu parsed, %zu line errors, %zu "
                "whole-file errors, %zu wrong\n",
                format.source.c_str(),
                static_cast<std::size_t>(mutationsPerFormat), parsed,
                lined, whole, wrong);
    EXPECT_EQ(wrong, 0u);
}

TEST(ParseFuzzTest, Trace)
{
    trace::TraceSet traces("fuzz app", 3, 1500.0);
    auto &r0 = traces.rankTrace(0);
    r0.append(trace::CpuBurst{10});
    r0.append(trace::ISendRec{1, 1, 100, 1, 11});
    r0.append(trace::WaitRec{11});
    r0.append(trace::SendRec{2, 2, 200, 2});
    r0.append(trace::WaitAllRec{});
    r0.append(trace::CollectiveRec{trace::CollOp::allReduce, 8, 8, 0});
    auto &r1 = traces.rankTrace(1);
    r1.append(trace::IRecvRec{0, 1, 100, 1, 21});
    r1.append(trace::WaitRec{21});
    r1.append(trace::CollectiveRec{trace::CollOp::allReduce, 8, 8, 0});
    auto &r2 = traces.rankTrace(2);
    r2.append(trace::RecvRec{0, 2, 200, 2});
    r2.append(trace::CpuBurst{30});
    r2.append(trace::CollectiveRec{trace::CollOp::allReduce, 8, 8, 0});
    std::ostringstream out;
    trace::writeTraceText(traces, out);
    fuzz({"fuzz.trace", out.str(),
          [](std::istream &in, const std::string &source) {
              trace::readTraceText(in, source);
          },
          {"trace has no 'ranks' header"}},
         1);
}

TEST(ParseFuzzTest, Overlap)
{
    trace::OverlapSet overlap;
    for (const trace::MessageId id : {3, 9}) {
        trace::MessageOverlapInfo info;
        info.id = id;
        info.src = 0;
        info.dst = 1;
        info.tag = 4;
        info.bytes = 8192;
        info.sendInstr = 5000;
        info.recvInstr = 100;
        info.prodWindowBegin = 1000;
        info.consWindowEnd = 9000;
        info.blockBytes = 2048;
        info.blockLastStore = {1500, 2500, 4500, 5000};
        info.blockFirstLoad = {100, 200, 8000, 9000};
        overlap.add(info);
    }
    std::ostringstream out;
    trace::writeOverlapText(overlap, out);
    fuzz({"fuzz.meta", out.str(),
          [](std::istream &in, const std::string &source) {
              trace::readOverlapText(in, source);
          },
          {}},
         2);
}

TEST(ParseFuzzTest, Scenario)
{
    std::istringstream text(
        "at 1500 degrade all bw 0.5 lat 2.0\nat 3000 recover all\n"
        "at 2000 fail link 0 7 stall\nat 2500 recover link 0 7\n"
        "at 1000 fail node 3 fail-stop\nat 800 fail route 2 5 reroute\n"
        "at 500 background 0 7 1048576\nat 1234567ns degrade node 2 "
        "bw 0.25\n");
    std::ostringstream out;
    scen::writeScenario(scen::readScenario(text), out);
    fuzz({"fuzz.scen", out.str(),
          [](std::istream &in, const std::string &source) {
              scen::readScenario(in, source);
          },
          {}},
         3);
}

TEST(ParseFuzzTest, FaultModel)
{
    std::istringstream text(
        "seed = 42\nhorizon_us = 100000\n"
        "process node 3 fail-stop mtbf_us 5000\n"
        "process node 2 stall mtbf_us 4000 mttr_us 150\n"
        "process link 0 7 degrade 0.25 mtbf_us 3000 mttr_us 500\n"
        "process all fail-stop mtbf_us 50000\n");
    std::ostringstream out;
    res::writeFaultModel(res::readFaultModel(text), out);
    fuzz({"fuzz.faults", out.str(),
          [](std::istream &in, const std::string &source) {
              res::readFaultModel(in, source);
          },
          {}},
         4);
}

TEST(ParseFuzzTest, AvailabilityTrace)
{
    fuzz({"fuzz.avail",
          "# capacity over one period\nPERIODICITY 1000\n0 1.0\n"
          "500 0.5\n700 0\n",
          [](std::istream &in, const std::string &source) {
              double period = 0.0;
              res::readAvailabilityTrace(in, source, period);
          },
          {"availability trace has no points"}},
         5);
}

TEST(ParseFuzzTest, Platform)
{
    auto platform =
        sim::platforms::topologyCluster(net::topologies::torus2d());
    platform.topology.torusDims = {4, 2};
    platform.collectiveModel = coll::CollectiveModel::algorithmic;
    platform.collectiveAlgorithms.set(trace::CollOp::allReduce,
                                      coll::Algorithm::ring);
    platform.topology.linkBandwidthMBps = 2048.0;
    platform.checkpointIntervalUs = 500.0;
    std::ostringstream out;
    sim::writePlatformConfig(platform, out);
    fuzz({"fuzz.platform", out.str(),
          [](std::istream &in, const std::string &source) {
              sim::readPlatformConfig(in, source);
          },
          {"platform: ", "topology: "}},
         6);
}

TEST(ParseFuzzTest, Workload)
{
    gen::WorkloadConfig workload;
    workload.kind = gen::WorkloadKind::fanIn;
    workload.name = "fuzz fan-in";
    workload.servers = 3;
    std::ostringstream out;
    gen::writeWorkloadConfig(workload, out);
    fuzz({"fuzz.workload", out.str(),
          [](std::istream &in, const std::string &source) {
              gen::readWorkloadConfig(in, source);
          },
          {"workload '"}},
         7);
}

} // namespace
} // namespace ovlsim
