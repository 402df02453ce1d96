/**
 * @file
 * Unit tests for the util substrate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "gen/workload_file.hh"
#include "util/logging.hh"
#include "util/mathutil.hh"
#include "util/options.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/types.hh"

namespace ovlsim {
namespace {

TEST(SimTimeTest, ConstructionAndAccessors)
{
    EXPECT_EQ(SimTime::zero().ns(), 0);
    EXPECT_EQ(SimTime::fromNs(1234).ns(), 1234);
    EXPECT_EQ(SimTime::fromUs(2.5).ns(), 2500);
    EXPECT_DOUBLE_EQ(SimTime::fromNs(1500).toUs(), 1.5);
}

TEST(SimTimeTest, Arithmetic)
{
    const auto a = SimTime::fromNs(100);
    const auto b = SimTime::fromNs(40);
    EXPECT_EQ((a + b).ns(), 140);
    EXPECT_EQ((a - b).ns(), 60);
    EXPECT_EQ((b * 3).ns(), 120);
    auto c = a;
    c += b;
    EXPECT_EQ(c.ns(), 140);
    c -= b;
    EXPECT_EQ(c.ns(), 100);
}

TEST(SimTimeTest, Comparison)
{
    EXPECT_LT(SimTime::fromNs(1), SimTime::fromNs(2));
    EXPECT_EQ(SimTime::fromNs(5), SimTime::fromNs(5));
    EXPECT_GT(SimTime::max(), SimTime::fromUs(1e12));
}

TEST(LoggingTest, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
}

TEST(LoggingTest, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input ", "x"), FatalError);
}

TEST(LoggingTest, AssertPassesAndFails)
{
    EXPECT_NO_THROW(ovlAssert(true, "fine"));
    EXPECT_THROW(ovlAssert(false, "nope"), PanicError);
}

TEST(LoggingTest, RunMainEndsAFatalErrorInStatusOne)
{
    char name[] = "tool";
    char *argv[] = {name, nullptr};
    EXPECT_EQ(runMain([](int argc, char **) { return argc + 6; }, 1,
                      argv),
              7);

    // runMain prints the message of a fatal() once.
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(runMain([](int, char **) -> int { fatal("bad ", 1); }, 1,
                      argv),
              1);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "fatal: bad 1\n");

    // So it does for an error thrown without fatal().
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(runMain([](int, char **) -> int {
                  throw FatalError("direct");
              },
                      1, argv),
              1);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "fatal: direct\n");

    // A malformed stream's error, raised again with its source and
    // line, is printed once, in its final form.
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(runMain([](int, char **) -> int {
                  std::istringstream in("kind = bogus\n");
                  gen::readWorkloadConfig(in, "w");
                  return 0;
              },
                      1, argv),
              1);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "fatal: w line 1: unknown workload kind 'bogus' (expected "
              "stencil, ml-training, fan-in or dht)\n");

    EXPECT_THROW(runMain([](int, char **) -> int { panic("bug"); }, 1,
                         argv),
                 PanicError);
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
    EXPECT_THROW(rng.nextBelow(0), PanicError);
}

TEST(OnlineStatsTest, MatchesDirectComputation)
{
    const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
    OnlineStats stats;
    for (const double x : xs)
        stats.add(x);
    EXPECT_EQ(stats.count(), xs.size());
    EXPECT_DOUBLE_EQ(stats.sum(), 31.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 16.0);
}

TEST(OnlineStatsTest, EmptyGuards)
{
    OnlineStats stats;
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_THROW(stats.min(), PanicError);
    EXPECT_THROW(stats.max(), PanicError);
}

TEST(HistogramTest, BinningAndOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(0.0);
    h.add(3.9);
    h.add(9.999);
    h.add(10.0);
    h.add(25.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 1u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.binLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.binHigh(1), 4.0);
    EXPECT_FALSE(h.render().empty());
}

TEST(HistogramTest, RejectsBadRanges)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), PanicError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), PanicError);
}

TEST(StringsTest, SplitPreservesEmptyFields)
{
    const auto fields = split("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(StringsTest, TrimAndCase)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(toLower("MiXeD"), "mixed");
    EXPECT_TRUE(startsWith("ovlsim", "ovl"));
    EXPECT_FALSE(startsWith("ovl", "ovlsim"));
}

TEST(StringsTest, Strformat)
{
    EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strformat("%05.1f", 2.25), "002.2");
}

TEST(StringsTest, HumanReadable)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(2048), "2.00 KiB");
    EXPECT_EQ(humanBytes(3 * 1024 * 1024ull), "3.00 MiB");
    EXPECT_EQ(humanTime(SimTime::fromNs(500)), "500 ns");
    EXPECT_EQ(humanTime(SimTime::fromUs(1.5)), "1.50 us");
    EXPECT_EQ(humanTime(SimTime::fromUs(2500)), "2.50 ms");
    EXPECT_EQ(humanTime(SimTime::fromNs(3'250'000'000)), "3.250 s");
}

TEST(StringsTest, ParseHelpers)
{
    EXPECT_TRUE(parseBool("Yes"));
    EXPECT_FALSE(parseBool("off"));
    EXPECT_THROW(parseBool("maybe"), FatalError);
}

TEST(TableTest, AlignsColumns)
{
    TablePrinter table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"long-name", "234"});
    const std::string out = table.toString();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Header row and underline plus two data rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableTest, RejectsMismatchedRows)
{
    TablePrinter table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), PanicError);
}

TEST(CsvTest, QuotesSpecialCharacters)
{
    const std::string path = ::testing::TempDir() + "ovl_csv.csv";
    {
        CsvWriter csv(path, {"k", "v"});
        csv.addRow({"plain", "has,comma"});
        csv.addRow({"quote\"inside", "multi\nline"});
    }
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    EXPECT_NE(text.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(text.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(OptionsTest, DefaultsAndOverrides)
{
    Options options;
    options.declare("bandwidth", "256", "network bandwidth");
    options.declare("verbose", "false", "chatty output");
    options.declare("name", "app", "application");
    const char *argv[] = {"prog", "--bandwidth=512", "--verbose",
                          "--name", "bt"};
    options.parse(5, argv);
    EXPECT_EQ(options.getInt("bandwidth"), 512);
    EXPECT_DOUBLE_EQ(options.getDouble("bandwidth", Sign::positive),
                     512.0);
    EXPECT_TRUE(options.getBool("verbose"));
    EXPECT_EQ(options.getString("name"), "bt");
}

/** The FatalError message of `body`, or "" when it returns. */
template <typename Body>
std::string
fatalMessage(const Body &body)
{
    try {
        body();
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(OptionsTest, StrayArgumentFailsNamingIt)
{
    // `overlap_study nas-cg` used to sweep the default app.
    Options options;
    options.declare("app", "nas-bt", "application");
    const char *argv[] = {"prog", "nas-cg"};
    EXPECT_EQ(fatalMessage([&] { options.parse(2, argv); }),
              "unexpected argument 'nas-cg' (options start with --)");
    const char *dash[] = {"prog", "--app", "pop", "-x"};
    EXPECT_EQ(fatalMessage([&] { options.parse(4, dash); }),
              "unexpected argument '-x' (options start with --)");
}

TEST(OptionsTest, NumbersAreCheckedAndNameTheOption)
{
    // Each used to reach an internal assertion (exit 134) or, for
    // an integer, a message that named no option.
    const auto read = [](const char *value, Sign sign) {
        Options options;
        options.declare("lo", "1", "lowest bandwidth");
        const std::string arg = std::string("--lo=") + value;
        const char *argv[] = {"prog", arg.c_str()};
        options.parse(2, argv);
        return fatalMessage([&] { options.getDouble("lo", sign); });
    };
    EXPECT_EQ(read("0", Sign::positive),
              "option --lo: value '0' must be positive");
    EXPECT_EQ(read("nan", Sign::any),
              "option --lo: value 'nan' is not finite");
    EXPECT_EQ(read("-1", Sign::nonNegative),
              "option --lo: negative value '-1'");
    EXPECT_EQ(read("2.5e3x", Sign::any),
              "option --lo: cannot parse '2.5e3x' as a number");
    EXPECT_EQ(read("0", Sign::nonNegative), "");
    EXPECT_EQ(read("-1", Sign::any), "");

    Options options;
    options.declare("chunks", "16x", "chunks per message");
    EXPECT_EQ(fatalMessage([&] { options.getInt("chunks", 1); }),
              "option --chunks: cannot parse '16x' as a number");
}

TEST(OptionsTest, UnknownOptionFails)
{
    Options options;
    options.declare("known", "1", "known option");
    const char *argv[] = {"prog", "--unknown=2"};
    EXPECT_THROW(options.parse(2, argv), FatalError);
}

TEST(OptionsTest, MissingValueFails)
{
    Options options;
    options.declare("count", "1", "a count");
    const char *argv[] = {"prog", "--count"};
    EXPECT_THROW(options.parse(2, argv), FatalError);
}

TEST(OptionsTest, BoundedIntRejectsOutOfRange)
{
    // The repros of silent narrowing: a thread count past INT_MAX
    // (4294967298 used to become 2), and a chunk count of 0 or -1
    // (an internal assertion, and SIZE_MAX).
    const auto bounded = [](const char *value, std::int64_t lo,
                            std::int64_t hi) {
        Options options;
        options.declare("n", "1", "a bounded count");
        const std::string arg = std::string("--n=") + value;
        const char *argv[] = {"prog", arg.c_str()};
        options.parse(2, argv);
        return options.getInt("n", lo, hi);
    };
    EXPECT_EQ(bounded("0", 0, INT_MAX), 0);
    EXPECT_EQ(bounded("2147483647", 0, INT_MAX), INT_MAX);
    EXPECT_EQ(bounded("9223372036854775807", 1,
                      std::numeric_limits<std::int64_t>::max()),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_THROW(bounded("4294967298", 0, INT_MAX), FatalError);
    EXPECT_THROW(bounded("2147483648", 0, INT_MAX), FatalError);
    EXPECT_THROW(bounded("-1", 0, INT_MAX), FatalError);
    EXPECT_THROW(bounded("0", 1, INT_MAX), FatalError);

    // The error names the option, its range and the value.
    try {
        bounded("-1", 1, 16);
        FAIL() << "-1 passed a [1, 16] bound";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "option --n must be in [1, 16], got -1"),
                  std::string::npos)
            << err.what();
    }

    // The default upper bound is the int64 range.
    Options options;
    options.declare("chunks", "-3", "chunks per message");
    EXPECT_THROW(options.getInt("chunks", 1), FatalError);
    EXPECT_EQ(options.getInt("chunks", -3), -3);
}

TEST(OptionsTest, UsageMentionsAllOptions)
{
    Options options;
    options.declare("alpha", "1", "first");
    options.declare("beta", "x", "second");
    const std::string usage = options.usage("prog");
    EXPECT_NE(usage.find("--alpha"), std::string::npos);
    EXPECT_NE(usage.find("--beta"), std::string::npos);
}

TEST(MathUtilTest, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(5, 0), 0u);
}

TEST(MathUtilTest, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(16), 4u);
    EXPECT_EQ(log2Ceil(17), 5u);
}

TEST(MathUtilTest, PowerOfTwoAndRoundUp)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
}

TEST(MathUtilTest, FitsClockUsBoundsTheNanosecondClock)
{
    EXPECT_TRUE(fitsClockUs(0.0));
    EXPECT_TRUE(fitsClockUs(9.2e15));  // 9.2e18 ns < 2^63
    EXPECT_TRUE(fitsClockUs(-9.2e15));
    EXPECT_FALSE(fitsClockUs(9.3e15)); // 9.3e18 ns > 2^63
    EXPECT_FALSE(fitsClockUs(1e300));
    EXPECT_FALSE(fitsClockUs(std::numeric_limits<double>::infinity()));
    EXPECT_FALSE(fitsClockUs(std::numeric_limits<double>::quiet_NaN()));
}

TEST(MathUtilTest, RoundNsChecksTheClockRange)
{
    EXPECT_EQ(roundNs(2.5).ns(), 3); // halves round away from zero
    EXPECT_EQ(roundNs(2.4).ns(), 2);
    EXPECT_EQ(roundNs(0x1p62).ns(), std::int64_t{1} << 62);
    EXPECT_EQ(roundNs(std::nextafter(0x1p63, 0.0)).ns(),
              std::numeric_limits<std::int64_t>::max() - 1023);
    EXPECT_THROW(roundNs(0x1p63), FatalError);
    EXPECT_THROW(roundNs(1e300), FatalError);
    EXPECT_THROW(roundNs(std::numeric_limits<double>::infinity()),
                 FatalError);
    EXPECT_THROW(roundNs(std::numeric_limits<double>::quiet_NaN()),
                 FatalError);
    try {
        roundNs(1e300);
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "a duration of 1e+300 ns overflows "
                                 "the 64-bit nanosecond clock");
    }
}

} // namespace
} // namespace ovlsim
