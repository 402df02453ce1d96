#include "trace_io.hh"

#include <charconv>
#include <fstream>
#include <sstream>
#include <type_traits>

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

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        tokens.push_back(tok);
    return tokens;
}

[[noreturn]] void
parseError(std::size_t line_no, const std::string &why)
{
    fatal("trace parse error at line ", line_no, ": ", why);
}

void
requireTokens(const std::vector<std::string> &tokens,
              std::size_t expected, std::size_t line_no)
{
    if (tokens.size() != expected) {
        parseError(line_no,
                   strformat("expected %zu fields, got %zu", expected,
                             tokens.size()));
    }
}

/**
 * Numeric field `i` of a line as a T. A field that is not a number,
 * does not fit T, or is negative where T is unsigned (byte and
 * instruction counts, ids) fails naming the line.
 */
template <typename T>
T
field(const std::vector<std::string> &tokens, std::size_t i,
      std::size_t line_no)
{
    const std::string &text = tokens[i];
    if (std::is_unsigned_v<T> && text.starts_with('-'))
        parseError(line_no, "negative value '" + text + "'");
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        parseError(line_no, "value '" + text + "' out of range");
    if (ec != std::errc() || stop != end)
        parseError(line_no, "cannot parse '" + text + "' as a number");
    return value;
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
readTraceText(std::istream &is)
{
    std::string line;
    std::size_t line_no = 0;

    if (!std::getline(is, line) || trim(line) != traceMagic)
        fatal("trace stream does not start with '", traceMagic, "'");
    ++line_no;

    TraceSet traces;
    std::string name = "unnamed";
    double mips = 1000.0;
    int ranks = -1;
    RankTrace *current = nullptr;

    while (std::getline(is, line)) {
        ++line_no;
        const std::string text = trim(line);
        if (text.empty() || text[0] == '#')
            continue;
        const auto tokens = tokenize(text);
        const std::string &kind = tokens[0];

        if (kind == "name") {
            // The name may contain spaces: take the raw remainder.
            name = trim(text.substr(4));
            continue;
        }
        if (kind == "mips") {
            requireTokens(tokens, 2, line_no);
            mips = field<double>(tokens, 1, line_no);
            if (!(mips > 0.0))
                parseError(line_no, "MIPS rate must be positive");
            continue;
        }
        if (kind == "ranks") {
            requireTokens(tokens, 2, line_no);
            ranks = field<int>(tokens, 1, line_no);
            if (ranks <= 0)
                parseError(line_no, "rank count must be positive");
            traces = TraceSet(name, ranks, mips);
            continue;
        }
        if (kind == "rank") {
            requireTokens(tokens, 2, line_no);
            if (ranks < 0)
                parseError(line_no, "'rank' before 'ranks'");
            const auto r = field<Rank>(tokens, 1, line_no);
            if (r < 0 || r >= ranks)
                parseError(line_no, "rank out of range");
            current = &traces.rankTrace(r);
            continue;
        }

        if (current == nullptr)
            parseError(line_no, "record before any 'rank' header");

        if (kind == "c") {
            requireTokens(tokens, 2, line_no);
            current->append(
                CpuBurst{field<Instr>(tokens, 1, line_no)});
        } else if (kind == "s" || kind == "is" || kind == "r" ||
                   kind == "ir") {
            const bool nonblocking = kind.size() == 2;
            requireTokens(tokens, nonblocking ? 6 : 5, line_no);
            const auto peer = field<Rank>(tokens, 1, line_no);
            const auto tag = field<Tag>(tokens, 2, line_no);
            const auto bytes = field<Bytes>(tokens, 3, line_no);
            const auto message = field<MessageId>(tokens, 4, line_no);
            if (kind == "s") {
                current->append(SendRec{peer, tag, bytes, message});
            } else if (kind == "r") {
                current->append(RecvRec{peer, tag, bytes, message});
            } else {
                const auto request =
                    field<RequestId>(tokens, 5, line_no);
                if (kind == "is") {
                    current->append(
                        ISendRec{peer, tag, bytes, message, request});
                } else {
                    current->append(
                        IRecvRec{peer, tag, bytes, message, request});
                }
            }
        } else if (kind == "w") {
            requireTokens(tokens, 2, line_no);
            current->append(
                WaitRec{field<RequestId>(tokens, 1, line_no)});
        } else if (kind == "wa") {
            requireTokens(tokens, 1, line_no);
            current->append(WaitAllRec{});
        } else if (kind == "g") {
            requireTokens(tokens, 5, line_no);
            current->append(CollectiveRec{
                collOpFromName(tokens[1]),
                field<Bytes>(tokens, 2, line_no),
                field<Bytes>(tokens, 3, line_no),
                field<Rank>(tokens, 4, line_no)});
        } else {
            parseError(line_no, "unknown record kind '" + kind + "'");
        }
    }

    if (ranks < 0)
        fatal("trace stream contains no 'ranks' header");
    return traces;
}

TraceSet
readTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open trace file '", path, "'");
    try {
        return readTraceText(is);
    } catch (const FatalError &err) {
        fatal(path, ": ", err.what());
    }
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
readOverlapText(std::istream &is)
{
    std::string line;
    std::size_t line_no = 0;

    if (!std::getline(is, line) || trim(line) != overlapMagic)
        fatal("overlap stream does not start with '", overlapMagic,
              "'");
    ++line_no;

    OverlapSet overlap;
    MessageOverlapInfo pending;
    bool have_pending = false;
    bool have_prod = false;
    bool have_cons = false;

    auto flush = [&]() {
        if (!have_pending)
            return;
        if (!have_prod || !have_cons) {
            fatal("overlap metadata for message ", pending.id,
                  " is missing prod/cons profiles");
        }
        overlap.add(std::move(pending));
        pending = MessageOverlapInfo{};
        have_pending = have_prod = have_cons = false;
    };

    while (std::getline(is, line)) {
        ++line_no;
        const std::string text = trim(line);
        if (text.empty() || text[0] == '#')
            continue;
        const auto tokens = tokenize(text);
        const std::string &kind = tokens[0];

        if (kind == "msg") {
            flush();
            requireTokens(tokens, 11, line_no);
            pending.id =
                static_cast<MessageId>(parseInt(tokens[1]));
            pending.src = static_cast<Rank>(parseInt(tokens[2]));
            pending.dst = static_cast<Rank>(parseInt(tokens[3]));
            pending.tag = static_cast<Tag>(parseInt(tokens[4]));
            pending.bytes = static_cast<Bytes>(parseInt(tokens[5]));
            pending.sendInstr =
                static_cast<Instr>(parseInt(tokens[6]));
            pending.recvInstr =
                static_cast<Instr>(parseInt(tokens[7]));
            pending.prodWindowBegin =
                static_cast<Instr>(parseInt(tokens[8]));
            pending.consWindowEnd =
                static_cast<Instr>(parseInt(tokens[9]));
            pending.blockBytes =
                static_cast<Bytes>(parseInt(tokens[10]));
            have_pending = true;
        } else if (kind == "prod" || kind == "cons") {
            if (!have_pending)
                parseError(line_no, "profile before 'msg' header");
            if (tokens.size() < 3)
                parseError(line_no, "truncated profile line");
            const auto id =
                static_cast<MessageId>(parseInt(tokens[1]));
            if (id != pending.id)
                parseError(line_no, "profile id mismatch");
            const auto n =
                static_cast<std::size_t>(parseInt(tokens[2]));
            requireTokens(tokens, 3 + n, line_no);
            std::vector<Instr> points;
            points.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                points.push_back(
                    static_cast<Instr>(parseInt(tokens[3 + i])));
            }
            if (kind == "prod") {
                pending.blockLastStore = std::move(points);
                have_prod = true;
            } else {
                pending.blockFirstLoad = std::move(points);
                have_cons = true;
            }
        } else {
            parseError(line_no, "unknown line kind '" + kind + "'");
        }
    }
    flush();
    return overlap;
}

OverlapSet
readOverlapFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open overlap file '", path, "'");
    return readOverlapText(is);
}

} // namespace ovlsim::trace
