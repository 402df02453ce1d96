#include "binary_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/logging.hh"

namespace ovlsim::trace {

namespace {

constexpr char traceMagic[4] = {'O', 'V', 'L', 'B'};
constexpr char overlapMagic[4] = {'O', 'V', 'L', 'O'};
constexpr std::uint32_t formatVersion = 1;

/** Record kind tags in the binary stream. */
enum class BinKind : std::uint8_t {
    cpu = 0,
    send = 1,
    isend = 2,
    recv = 3,
    irecv = 4,
    wait = 5,
    waitAll = 6,
    collective = 7,
};

class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    void
    raw(const void *data, std::size_t len)
    {
        os_.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(len));
    }

    template <typename T>
    void
    value(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        raw(&v, sizeof(v));
    }

    void
    str(const std::string &s)
    {
        value<std::uint32_t>(
            static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    bool ok() const { return static_cast<bool>(os_); }

  private:
    std::ostream &os_;
};

class Reader
{
  public:
    /** Measures the rest of a seekable stream once, so reservations
     * sized from untrusted counts can be capped by it. */
    explicit Reader(std::istream &is) : is_(is)
    {
        const auto here = is_.tellg();
        if (here == std::istream::pos_type(-1))
            return;
        is_.seekg(0, std::ios::end);
        const auto end = is_.tellg();
        if (is_ && end != std::istream::pos_type(-1) && end >= here)
            left_ = static_cast<std::uint64_t>(end - here);
        is_.clear();
        is_.seekg(here);
    }

    void
    raw(void *data, std::size_t len)
    {
        is_.read(static_cast<char *>(data),
                 static_cast<std::streamsize>(len));
        if (!is_)
            fatal("binary trace: truncated stream");
        left_ -= std::min<std::uint64_t>(left_, len);
    }

    /**
     * How many of `count` claimed items of at least `item_bytes`
     * each the rest of the stream can hold — what a reservation may
     * ask for. 0 when the stream's size is unknown (not seekable):
     * the containers then grow as items actually arrive, and a
     * lying count ends in the truncated-stream error either way.
     */
    std::uint64_t
    reservable(std::uint64_t count, std::size_t item_bytes) const
    {
        return std::min<std::uint64_t>(count, left_ / item_bytes);
    }

    template <typename T>
    T
    value()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        raw(&v, sizeof(v));
        return v;
    }

    std::string
    str(std::uint32_t max_len = 1 << 20)
    {
        const auto len = value<std::uint32_t>();
        if (len > max_len)
            fatal("binary trace: implausible string length ",
                  len);
        std::string s(len, '\0');
        if (len > 0)
            raw(s.data(), len);
        return s;
    }

  private:
    std::istream &is_;
    /** Bytes left in the stream; 0 if unknown. */
    std::uint64_t left_ = 0;
};

struct RecordBinWriter
{
    Writer &w;

    void
    operator()(const CpuBurst &r) const
    {
        w.value(BinKind::cpu);
        w.value<std::uint64_t>(r.instructions);
    }
    void
    operator()(const SendRec &r) const
    {
        w.value(BinKind::send);
        w.value<std::int32_t>(r.dst);
        w.value<std::int32_t>(r.tag);
        w.value<std::uint64_t>(r.bytes);
        w.value<std::uint64_t>(r.message);
    }
    void
    operator()(const ISendRec &r) const
    {
        w.value(BinKind::isend);
        w.value<std::int32_t>(r.dst);
        w.value<std::int32_t>(r.tag);
        w.value<std::uint64_t>(r.bytes);
        w.value<std::uint64_t>(r.message);
        w.value<std::uint64_t>(r.request);
    }
    void
    operator()(const RecvRec &r) const
    {
        w.value(BinKind::recv);
        w.value<std::int32_t>(r.src);
        w.value<std::int32_t>(r.tag);
        w.value<std::uint64_t>(r.bytes);
        w.value<std::uint64_t>(r.message);
    }
    void
    operator()(const IRecvRec &r) const
    {
        w.value(BinKind::irecv);
        w.value<std::int32_t>(r.src);
        w.value<std::int32_t>(r.tag);
        w.value<std::uint64_t>(r.bytes);
        w.value<std::uint64_t>(r.message);
        w.value<std::uint64_t>(r.request);
    }
    void
    operator()(const WaitRec &r) const
    {
        w.value(BinKind::wait);
        w.value<std::uint64_t>(r.request);
    }
    void
    operator()(const WaitAllRec &) const
    {
        w.value(BinKind::waitAll);
    }
    void
    operator()(const CollectiveRec &r) const
    {
        w.value(BinKind::collective);
        w.value<std::uint8_t>(static_cast<std::uint8_t>(r.op));
        w.value<std::uint64_t>(r.sendBytes);
        w.value<std::uint64_t>(r.recvBytes);
        w.value<std::int32_t>(r.root);
    }
};

Record
readRecord(Reader &r)
{
    const auto kind = r.value<BinKind>();
    switch (kind) {
      case BinKind::cpu:
        return CpuBurst{r.value<std::uint64_t>()};
      case BinKind::send: {
        SendRec rec;
        rec.dst = r.value<std::int32_t>();
        rec.tag = r.value<std::int32_t>();
        rec.bytes = r.value<std::uint64_t>();
        rec.message = r.value<std::uint64_t>();
        return rec;
      }
      case BinKind::isend: {
        ISendRec rec;
        rec.dst = r.value<std::int32_t>();
        rec.tag = r.value<std::int32_t>();
        rec.bytes = r.value<std::uint64_t>();
        rec.message = r.value<std::uint64_t>();
        rec.request = r.value<std::uint64_t>();
        return rec;
      }
      case BinKind::recv: {
        RecvRec rec;
        rec.src = r.value<std::int32_t>();
        rec.tag = r.value<std::int32_t>();
        rec.bytes = r.value<std::uint64_t>();
        rec.message = r.value<std::uint64_t>();
        return rec;
      }
      case BinKind::irecv: {
        IRecvRec rec;
        rec.src = r.value<std::int32_t>();
        rec.tag = r.value<std::int32_t>();
        rec.bytes = r.value<std::uint64_t>();
        rec.message = r.value<std::uint64_t>();
        rec.request = r.value<std::uint64_t>();
        return rec;
      }
      case BinKind::wait:
        return WaitRec{r.value<std::uint64_t>()};
      case BinKind::waitAll:
        return WaitAllRec{};
      case BinKind::collective: {
        CollectiveRec rec;
        const auto op = r.value<std::uint8_t>();
        if (op > static_cast<std::uint8_t>(CollOp::allToAll))
            fatal("binary trace: bad collective op ", op);
        rec.op = static_cast<CollOp>(op);
        rec.sendBytes = r.value<std::uint64_t>();
        rec.recvBytes = r.value<std::uint64_t>();
        rec.root = r.value<std::int32_t>();
        return rec;
      }
    }
    fatal("binary trace: unknown record kind ",
          static_cast<int>(kind));
}

void
checkMagic(Reader &r, const char (&magic)[4], const char *what)
{
    char buf[4];
    r.raw(buf, 4);
    if (std::memcmp(buf, magic, 4) != 0)
        fatal("binary ", what, ": bad magic");
    const auto version = r.value<std::uint32_t>();
    if (version != formatVersion)
        fatal("binary ", what, ": unsupported version ", version);
}

} // namespace

void
writeTraceBinary(const TraceSet &traces, std::ostream &os)
{
    Writer w(os);
    w.raw(traceMagic, 4);
    w.value(formatVersion);
    w.str(traces.name());
    w.value<double>(traces.mips());
    w.value<std::uint32_t>(
        static_cast<std::uint32_t>(traces.ranks()));
    for (const auto &rt : traces.all()) {
        w.value<std::uint32_t>(
            static_cast<std::uint32_t>(rt.rank()));
        w.value<std::uint64_t>(rt.size());
        RecordBinWriter writer{w};
        for (const auto &rec : rt.records())
            std::visit(writer, rec);
    }
    if (!w.ok())
        fatal("binary trace: write error");
}

TraceSet
readTraceBinary(std::istream &is)
{
    Reader r(is);
    checkMagic(r, traceMagic, "trace");
    const std::string name = r.str();
    const double mips = r.value<double>();
    const auto ranks = r.value<std::uint32_t>();
    if (ranks == 0 || ranks > (1u << 24))
        fatal("binary trace: implausible rank count ", ranks);
    if (mips <= 0.0)
        fatal("binary trace: non-positive MIPS rate");

    TraceSet traces(name, static_cast<int>(ranks), mips);
    for (std::uint32_t i = 0; i < ranks; ++i) {
        const auto rank = r.value<std::uint32_t>();
        if (rank >= ranks)
            fatal("binary trace: rank ", rank, " out of range");
        const auto count = r.value<std::uint64_t>();
        auto &rt = traces.rankTrace(static_cast<Rank>(rank));
        // The smallest record is its one-byte kind tag.
        rt.records().reserve(r.reservable(count, 1));
        for (std::uint64_t k = 0; k < count; ++k)
            rt.append(readRecord(r));
    }
    return traces;
}

void
writeTraceBinaryFile(const TraceSet &traces,
                     const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeTraceBinary(traces, os);
}

TraceSet
readTraceBinaryFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open binary trace '", path, "'");
    try {
        return readTraceBinary(is);
    } catch (const FatalError &err) {
        fatal(path, ": ", err.what());
    }
}

void
writeOverlapBinary(const OverlapSet &overlap, std::ostream &os)
{
    Writer w(os);
    w.raw(overlapMagic, 4);
    w.value(formatVersion);
    w.value<std::uint64_t>(overlap.size());
    for (const auto &[id, info] : overlap.all()) {
        w.value<std::uint64_t>(id);
        w.value<std::int32_t>(info.src);
        w.value<std::int32_t>(info.dst);
        w.value<std::int32_t>(info.tag);
        w.value<std::uint64_t>(info.bytes);
        w.value<std::uint64_t>(info.sendInstr);
        w.value<std::uint64_t>(info.recvInstr);
        w.value<std::uint64_t>(info.prodWindowBegin);
        w.value<std::uint64_t>(info.consWindowEnd);
        w.value<std::uint64_t>(info.blockBytes);
        w.value<std::uint64_t>(info.blockLastStore.size());
        for (const auto p : info.blockLastStore)
            w.value<std::uint64_t>(p);
        w.value<std::uint64_t>(info.blockFirstLoad.size());
        for (const auto c : info.blockFirstLoad)
            w.value<std::uint64_t>(c);
    }
    if (!w.ok())
        fatal("binary overlap: write error");
}

OverlapSet
readOverlapBinary(std::istream &is)
{
    Reader r(is);
    checkMagic(r, overlapMagic, "overlap");
    const auto count = r.value<std::uint64_t>();
    if (count > (1ull << 40))
        fatal("binary overlap: implausible message count");

    OverlapSet overlap;
    for (std::uint64_t i = 0; i < count; ++i) {
        MessageOverlapInfo info;
        info.id = r.value<std::uint64_t>();
        info.src = r.value<std::int32_t>();
        info.dst = r.value<std::int32_t>();
        info.tag = r.value<std::int32_t>();
        info.bytes = r.value<std::uint64_t>();
        info.sendInstr = r.value<std::uint64_t>();
        info.recvInstr = r.value<std::uint64_t>();
        info.prodWindowBegin = r.value<std::uint64_t>();
        info.consWindowEnd = r.value<std::uint64_t>();
        info.blockBytes = r.value<std::uint64_t>();
        const auto stores = r.value<std::uint64_t>();
        if (stores > (1ull << 32))
            fatal("binary overlap: implausible profile size");
        info.blockLastStore.reserve(
            r.reservable(stores, sizeof(std::uint64_t)));
        for (std::uint64_t b = 0; b < stores; ++b)
            info.blockLastStore.push_back(
                r.value<std::uint64_t>());
        const auto loads = r.value<std::uint64_t>();
        if (loads > (1ull << 32))
            fatal("binary overlap: implausible profile size");
        info.blockFirstLoad.reserve(
            r.reservable(loads, sizeof(std::uint64_t)));
        for (std::uint64_t b = 0; b < loads; ++b)
            info.blockFirstLoad.push_back(
                r.value<std::uint64_t>());
        overlap.add(std::move(info));
    }
    return overlap;
}

void
writeOverlapBinaryFile(const OverlapSet &overlap,
                       const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeOverlapBinary(overlap, os);
}

OverlapSet
readOverlapBinaryFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open binary overlap '", path, "'");
    try {
        return readOverlapBinary(is);
    } catch (const FatalError &err) {
        fatal(path, ": ", err.what());
    }
}

} // namespace ovlsim::trace
