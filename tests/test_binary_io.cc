/**
 * @file
 * Tests for the binary trace format: round trips, cross-format
 * equivalence with the text format, and corruption rejection.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "tests/helpers.hh"
#include "trace/binary_io.hh"
#include "trace/trace_io.hh"
#include "trace/validate.hh"
#include "util/logging.hh"

namespace ovlsim::trace {
namespace {

tracer::TraceBundle
sampleBundle()
{
    return ovlsim::testing::traceOf(
        4, ovlsim::testing::ringExchange(64 * 1024, 300'000, 2));
}

std::string
textOf(const TraceSet &traces)
{
    std::ostringstream os;
    writeTraceText(traces, os);
    return os.str();
}

TEST(BinaryIoTest, TraceRoundTripIsLossless)
{
    const auto bundle = sampleBundle();
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceBinary(bundle.traces, stream);
    const auto parsed = readTraceBinary(stream);
    // Cross-check through the canonical text rendering.
    EXPECT_EQ(textOf(parsed), textOf(bundle.traces));
    EXPECT_TRUE(validateTraceSet(parsed).valid());
}

TEST(BinaryIoTest, EveryRecordKindSurvives)
{
    TraceSet traces("kinds", 2, 1234.5);
    auto &r0 = traces.rankTrace(0);
    r0.append(CpuBurst{42});
    r0.append(SendRec{1, 3, 100, 7});
    r0.append(ISendRec{1, 4, 200, 8, 11});
    r0.append(WaitRec{11});
    r0.append(WaitAllRec{});
    r0.append(CollectiveRec{CollOp::allToAll, 64, 128, 1});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 3, 100, 7});
    r1.append(IRecvRec{0, 4, 200, 8, 21});
    r1.append(WaitRec{21});
    r1.append(CollectiveRec{CollOp::allToAll, 64, 128, 1});

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceBinary(traces, stream);
    const auto parsed = readTraceBinary(stream);
    EXPECT_EQ(textOf(parsed), textOf(traces));
    EXPECT_DOUBLE_EQ(parsed.mips(), 1234.5);
    EXPECT_EQ(parsed.name(), "kinds");
}

TEST(BinaryIoTest, OverlapRoundTripIsLossless)
{
    const auto bundle = sampleBundle();
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeOverlapBinary(bundle.overlap, stream);
    const auto parsed = readOverlapBinary(stream);

    ASSERT_EQ(parsed.size(), bundle.overlap.size());
    for (const auto &[id, info] : bundle.overlap.all()) {
        const auto &p = parsed.get(id);
        EXPECT_EQ(p.src, info.src);
        EXPECT_EQ(p.dst, info.dst);
        EXPECT_EQ(p.bytes, info.bytes);
        EXPECT_EQ(p.sendInstr, info.sendInstr);
        EXPECT_EQ(p.recvInstr, info.recvInstr);
        EXPECT_EQ(p.prodWindowBegin, info.prodWindowBegin);
        EXPECT_EQ(p.consWindowEnd, info.consWindowEnd);
        EXPECT_EQ(p.blockLastStore, info.blockLastStore);
        EXPECT_EQ(p.blockFirstLoad, info.blockFirstLoad);
    }
}

TEST(BinaryIoTest, FileRoundTrip)
{
    const auto bundle = sampleBundle();
    const std::string dir = ::testing::TempDir();
    const std::string trace_path = dir + "ovl_bin_trace.bin";
    const std::string overlap_path = dir + "ovl_bin_overlap.bin";

    writeTraceBinaryFile(bundle.traces, trace_path);
    writeOverlapBinaryFile(bundle.overlap, overlap_path);

    const auto traces = readTraceBinaryFile(trace_path);
    const auto overlap = readOverlapBinaryFile(overlap_path);
    EXPECT_EQ(textOf(traces), textOf(bundle.traces));
    EXPECT_EQ(overlap.size(), bundle.overlap.size());
}

TEST(BinaryIoTest, RejectsBadMagic)
{
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    stream.write("NOPE0000", 8);
    EXPECT_THROW(readTraceBinary(stream), FatalError);
}

TEST(BinaryIoTest, RejectsTruncatedStream)
{
    const auto bundle = sampleBundle();
    std::ostringstream os(std::ios::binary);
    writeTraceBinary(bundle.traces, os);
    const std::string full = os.str();

    // Cut the stream at several points; every cut must be detected.
    for (const std::size_t cut :
         {full.size() / 7, full.size() / 3, full.size() - 1}) {
        std::istringstream is(full.substr(0, cut),
                              std::ios::binary);
        EXPECT_THROW(readTraceBinary(is), FatalError)
            << "cut at " << cut;
    }
}

TEST(BinaryIoTest, RejectsCorruptedCollectiveOp)
{
    TraceSet traces("bad", 1);
    traces.rankTrace(0).append(
        CollectiveRec{CollOp::barrier, 0, 0, 0});
    std::ostringstream os(std::ios::binary);
    writeTraceBinary(traces, os);
    std::string data = os.str();
    // The collective op byte is right after the record kind tag;
    // smash it to an invalid value.
    const auto pos = data.size() - sizeof(std::uint64_t) * 2 -
        sizeof(std::int32_t) - 1;
    data[pos] = static_cast<char>(0x7f);
    std::istringstream is(data, std::ios::binary);
    EXPECT_THROW(readTraceBinary(is), FatalError);
}

/** Append the raw bytes of `v` (the format is little-endian, as is
 * every supported host). */
template <typename T>
void
put(std::string &out, T v)
{
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out.append(bytes, sizeof(T));
}

/** A 44-byte trace: one rank whose header claims 2^40 records. */
std::string
hostileTraceHeader()
{
    std::string data = "OVLB";
    put<std::uint32_t>(data, 1); // version
    put<std::uint32_t>(data, 8); // name length
    data += "hostile!";
    put<double>(data, 1000.0);       // MIPS
    put<std::uint32_t>(data, 1);     // ranks
    put<std::uint32_t>(data, 0);     // rank
    put<std::uint64_t>(data, 1ull << 40); // record count
    return data;
}

TEST(BinaryIoTest, LyingRecordCountIsATruncationNotAnAllocation)
{
    const std::string data = hostileTraceHeader();
    ASSERT_EQ(data.size(), 44u);
    std::istringstream is(data, std::ios::binary);
    try {
        readTraceBinary(is);
        FAIL() << "a 44-byte trace claiming 2^40 records parsed";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("truncated stream"),
                  std::string::npos)
            << err.what();
    }
}

TEST(BinaryIoTest, LyingProfileSizeIsATruncationNotAnAllocation)
{
    // One overlap entry whose block-store profile claims 2^32
    // positions, the largest count the size check lets through.
    std::string data = "OVLO";
    put<std::uint32_t>(data, 1);  // version
    put<std::uint64_t>(data, 1);  // message count
    put<std::uint64_t>(data, 7);  // id
    put<std::int32_t>(data, 0);   // src
    put<std::int32_t>(data, 1);   // dst
    put<std::int32_t>(data, 3);   // tag
    for (int field = 0; field < 6; ++field)
        put<std::uint64_t>(data, 64); // bytes .. blockBytes
    put<std::uint64_t>(data, 1ull << 32); // stores
    std::istringstream is(data, std::ios::binary);
    try {
        readOverlapBinary(is);
        FAIL() << "an overlap entry claiming 2^32 stores parsed";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("truncated stream"),
                  std::string::npos)
            << err.what();
    }
}

TEST(BinaryIoTest, FileReadErrorsNameThePath)
{
    const std::string dir = ::testing::TempDir();
    const std::string trace_path = dir + "ovl_bin_hostile_trace.bin";
    const std::string overlap_path = dir + "ovl_bin_hostile_overlap.bin";
    {
        std::ofstream os(trace_path, std::ios::binary);
        const std::string data = hostileTraceHeader();
        os.write(data.data(), static_cast<std::streamsize>(data.size()));
        std::ofstream overlap(overlap_path, std::ios::binary);
        overlap.write("OVLO", 4); // the version field is cut off
    }
    for (const auto &[path, read] :
         {std::pair<std::string, void (*)(const std::string &)>{
              trace_path,
              [](const std::string &p) { readTraceBinaryFile(p); }},
          {overlap_path,
           [](const std::string &p) { readOverlapBinaryFile(p); }}}) {
        try {
            read(path);
            FAIL() << path << " parsed";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(path),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(BinaryIoTest, LargeTraceRoundTrips)
{
    // A trace with thousands of records and large field values.
    TraceSet traces("large", 8, 3200.0);
    for (Rank r = 0; r < 8; ++r) {
        auto &rt = traces.rankTrace(r);
        for (int i = 0; i < 500; ++i) {
            rt.append(CpuBurst{
                static_cast<Instr>(1'234'567'890ull + i)});
            rt.append(SendRec{
                (r + 1) % 8, 1000 + i,
                static_cast<Bytes>(1ull << 33),
                static_cast<MessageId>(r * 1000 + i + 1)});
            rt.append(RecvRec{
                (r + 7) % 8, 1000 + i,
                static_cast<Bytes>(1ull << 33),
                static_cast<MessageId>(((r + 7) % 8) * 1000 +
                                       i + 1)});
        }
    }
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceBinary(traces, stream);
    const auto parsed = readTraceBinary(stream);
    EXPECT_EQ(textOf(parsed), textOf(traces));
    EXPECT_EQ(parsed.totalRecords(), traces.totalRecords());
}

} // namespace
} // namespace ovlsim::trace
