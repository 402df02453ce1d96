#include "trace_io.hh"

#include <fstream>

#include "util/line_reader.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim::trace {

namespace {

constexpr const char *traceMagic = "#OVLSIM-TRACE 1";
constexpr const char *overlapMagic = "#OVLSIM-OVERLAP 1";

struct RecordWriter
{
    std::ostream &os;

    void
    operator()(const CpuBurst &r) const
    {
        os << "c " << r.instructions << "\n";
    }
    void
    operator()(const SendRec &r) const
    {
        os << "s " << r.dst << " " << r.tag << " " << r.bytes << " "
           << r.message << "\n";
    }
    void
    operator()(const ISendRec &r) const
    {
        os << "is " << r.dst << " " << r.tag << " " << r.bytes << " "
           << r.message << " " << r.request << "\n";
    }
    void
    operator()(const RecvRec &r) const
    {
        os << "r " << r.src << " " << r.tag << " " << r.bytes << " "
           << r.message << "\n";
    }
    void
    operator()(const IRecvRec &r) const
    {
        os << "ir " << r.src << " " << r.tag << " " << r.bytes << " "
           << r.message << " " << r.request << "\n";
    }
    void
    operator()(const WaitRec &r) const
    {
        os << "w " << r.request << "\n";
    }
    void operator()(const WaitAllRec &) const { os << "wa\n"; }
    void
    operator()(const CollectiveRec &r) const
    {
        os << "g " << collOpName(r.op) << " " << r.sendBytes << " "
           << r.recvBytes << " " << r.root << "\n";
    }
};

/** One record line of a rank section. */
Record
parseRecord(const LineReader &line)
{
    const std::string &kind = line[0];
    if (kind == "c") {
        line.expectTokens(2, "c <instr>");
        return CpuBurst{parseNumber<Instr>(line[1])};
    }
    if (kind == "s" || kind == "is" || kind == "r" || kind == "ir") {
        const bool nonblocking = kind.size() == 2;
        line.expectTokens(nonblocking ? 6 : 5,
                          kind + " <peer> <tag> <bytes> <msgid>" +
                              (nonblocking ? " <req>" : ""));
        const auto peer = parseNumber<Rank>(line[1]);
        const auto tag = parseNumber<Tag>(line[2]);
        const auto bytes = parseNumber<Bytes>(line[3]);
        const auto message = parseNumber<MessageId>(line[4]);
        if (kind == "s")
            return SendRec{peer, tag, bytes, message};
        if (kind == "r")
            return RecvRec{peer, tag, bytes, message};
        const auto request = parseNumber<RequestId>(line[5]);
        if (kind == "is")
            return ISendRec{peer, tag, bytes, message, request};
        return IRecvRec{peer, tag, bytes, message, request};
    }
    if (kind == "w") {
        line.expectTokens(2, "w <req>");
        return WaitRec{parseNumber<RequestId>(line[1])};
    }
    if (kind == "wa") {
        line.expectTokens(1, "wa");
        return WaitAllRec{};
    }
    if (kind == "g") {
        line.expectTokens(5, "g <op> <sendbytes> <recvbytes> <root>");
        return CollectiveRec{collOpFromName(line[1]),
                             parseNumber<Bytes>(line[2]),
                             parseNumber<Bytes>(line[3]),
                             parseNumber<Rank>(line[4])};
    }
    fatal("unknown record kind '", kind, "'");
}

} // namespace

void
writeTraceText(const TraceSet &traces, std::ostream &os)
{
    os << traceMagic << "\n";
    os << "name " << traces.name() << "\n";
    os << "mips " << strformat("%.17g", traces.mips()) << "\n";
    os << "ranks " << traces.ranks() << "\n";
    for (const auto &rt : traces.all()) {
        os << "rank " << rt.rank() << "\n";
        RecordWriter writer{os};
        for (const auto &rec : rt.records())
            std::visit(writer, rec);
    }
}

void
writeTraceFile(const TraceSet &traces, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeTraceText(traces, os);
    if (!os)
        fatal("error while writing trace to '", path, "'");
}

TraceSet
readTraceText(std::istream &is, const std::string &source)
{
    LineReader line(is, source);
    line.expectMagic(traceMagic);

    // The headers come once each, before the first section; then
    // one `rank r` section per declared rank, in order, each
    // allocated as it appears, so memory follows the input.
    TraceSet traces;
    int ranks = 0;
    std::size_t ranks_line = 0;
    line.forEachLine([&] {
        const std::string &kind = line[0];
        if (kind == "name" || kind == "mips" || kind == "ranks") {
            if (traces.ranks() > 0)
                fatal("'", kind, "' after the first 'rank' section");
            line.once(kind);
            if (kind == "name") {
                // The name may contain spaces: take the remainder.
                traces.setName(line.rest());
            } else if (kind == "mips") {
                line.expectTokens(2, "mips <instr/us>");
                traces.setMips(
                    parseNumber<double>(line[1], Sign::positive));
            } else {
                line.expectTokens(2, "ranks <n>");
                ranks = parseNumber<int>(line[1], Sign::positive);
                ranks_line = line.line();
            }
            return;
        }
        if (kind == "rank") {
            line.expectTokens(2, "rank <r>");
            if (ranks_line == 0)
                fatal("'rank' before 'ranks'");
            const auto r = parseNumber<Rank>(line[1]);
            if (r < 0 || r >= ranks)
                fatal("rank ", r, " out of range (ranks ", ranks, ")");
            if (r != traces.ranks())
                fatal("expected 'rank ", traces.ranks(), "'");
            traces.all().emplace_back(r);
            return;
        }
        if (traces.ranks() == 0)
            fatal("record before any 'rank' header");
        traces.all().back().append(parseRecord(line));
    });
    line.check(
        [&] {
            if (ranks_line == 0)
                fatal("trace has no 'ranks' header");
            if (traces.ranks() < ranks) {
                fatal("'ranks ", ranks, "' but ", traces.ranks(),
                      " 'rank' sections follow");
            }
        },
        ranks_line);
    return traces;
}

TraceSet
readTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open trace file '", path, "'");
    return readTraceText(is, path);
}

void
writeOverlapText(const OverlapSet &overlap, std::ostream &os)
{
    os << overlapMagic << "\n";
    for (const auto &[id, info] : overlap.all()) {
        os << "msg " << id << " " << info.src << " " << info.dst
           << " " << info.tag << " " << info.bytes << " "
           << info.sendInstr << " " << info.recvInstr << " "
           << info.prodWindowBegin << " " << info.consWindowEnd
           << " " << info.blockBytes << "\n";
        os << "prod " << id << " " << info.blockLastStore.size();
        for (const auto p : info.blockLastStore)
            os << " " << p;
        os << "\n";
        os << "cons " << id << " " << info.blockFirstLoad.size();
        for (const auto c : info.blockFirstLoad)
            os << " " << c;
        os << "\n";
    }
}

void
writeOverlapFile(const OverlapSet &overlap, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeOverlapText(overlap, os);
    if (!os)
        fatal("error while writing overlap metadata to '", path, "'");
}

OverlapSet
readOverlapText(std::istream &is, const std::string &source)
{
    LineReader line(is, source);
    line.expectMagic(overlapMagic);

    // Each message is its `msg` line, then its `prod` and `cons`
    // profile lines, as writeOverlapText writes them.
    static constexpr const char *order[] = {"msg", "prod", "cons"};
    OverlapSet overlap;
    MessageOverlapInfo info;
    std::size_t next = 0;
    std::size_t msg_line = 0;
    line.forEachLine([&] {
        if (line[0] != order[next])
            fatal("expected a '", order[next], "' line");
        if (next == 0) {
            line.expectTokens(11, "msg <id> <src> <dst> <tag> <bytes> "
                                  "<sendI> <recvI> <pBegin> <cEnd> "
                                  "<blockBytes>");
            info = MessageOverlapInfo{};
            info.id = parseNumber<MessageId>(line[1], Sign::positive);
            if (overlap.contains(info.id))
                fatal("duplicate message ", info.id);
            info.src = parseNumber<Rank>(line[2]);
            info.dst = parseNumber<Rank>(line[3]);
            info.tag = parseNumber<Tag>(line[4]);
            info.bytes = parseNumber<Bytes>(line[5]);
            info.sendInstr = parseNumber<Instr>(line[6]);
            info.recvInstr = parseNumber<Instr>(line[7]);
            info.prodWindowBegin = parseNumber<Instr>(line[8]);
            info.consWindowEnd = parseNumber<Instr>(line[9]);
            info.blockBytes = parseNumber<Bytes>(line[10]);
            msg_line = line.line();
        } else {
            if (line.size() < 3 ||
                parseNumber<MessageId>(line[1]) != info.id) {
                fatal("expected `", order[next], " ", info.id,
                      " <n> <points>...`");
            }
            const auto n = parseNumber<std::uint64_t>(line[2]);
            if (n != line.size() - 3) {
                fatal("profile of ", n, " points holds ",
                      line.size() - 3);
            }
            std::vector<Instr> points;
            points.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                points.push_back(parseNumber<Instr>(line[3 + i]));
            if (next == 1) {
                info.blockLastStore = std::move(points);
            } else {
                info.blockFirstLoad = std::move(points);
                overlap.add(std::move(info));
            }
        }
        next = (next + 1) % 3;
    });
    line.check(
        [&] {
            if (next != 0) {
                fatal("message ", info.id, " has no '", order[next],
                      "' profile");
            }
        },
        msg_line);
    return overlap;
}

OverlapSet
readOverlapFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open overlap file '", path, "'");
    return readOverlapText(is, path);
}

} // namespace ovlsim::trace
