/**
 * @file
 * Shared fixtures and mini-applications for the test suite.
 */

#ifndef OVLSIM_TESTS_HELPERS_HH
#define OVLSIM_TESTS_HELPERS_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.hh"
#include "net/topology.hh"
#include "obs/stats.hh"
#include "sim/platform.hh"
#include "sim/result.hh"
#include "trace/trace.hh"
#include "tracer/tracer.hh"
#include "vm/vm.hh"

namespace ovlsim::testing {

/** The (src, dst) route of a compiled topology, copied out. */
inline std::vector<std::uint32_t>
routeOf(const net::CompiledTopology &topo, int src, int dst)
{
    std::vector<std::uint32_t> out(topo.maxRouteLength());
    out.resize(topo.route(src, dst, out).size());
    return out;
}

/** The obs::cacheReport() row named `name` (rows are looked up by
 * name, never by position). */
inline obs::CacheReportRow
cacheRow(const std::string &name)
{
    for (const obs::CacheReportRow &row : obs::cacheReport()) {
        if (row.name == name)
            return row;
    }
    ADD_FAILURE() << "no cache row named " << name;
    return {};
}

/** FNV-1a over the little-endian bytes of every rank's end time. */
inline std::uint64_t
endTimeHash(const sim::SimResult &result)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &rank : result.perRank) {
        auto v = static_cast<std::uint64_t>(rank.endTime.ns());
        for (int byte = 0; byte < 8; ++byte) {
            h ^= v & 0xffu;
            h *= 0x100000001b3ULL;
            v >>= 8;
        }
    }
    return h;
}

/**
 * Assert full structural equality of two replay results — the
 * bit-identical contract every determinism/parallelism test pins.
 */
inline void
expectIdentical(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.totalTime.ns(), b.totalTime.ns());
    EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
    EXPECT_EQ(a.transfers, b.transfers);
    ASSERT_EQ(a.perRank.size(), b.perRank.size());
    for (std::size_t r = 0; r < a.perRank.size(); ++r) {
        const auto &ra = a.perRank[r];
        const auto &rb = b.perRank[r];
        EXPECT_EQ(ra.endTime.ns(), rb.endTime.ns()) << "rank " << r;
        EXPECT_EQ(ra.computeTime.ns(), rb.computeTime.ns())
            << "rank " << r;
        EXPECT_EQ(ra.sendBlockedTime.ns(), rb.sendBlockedTime.ns())
            << "rank " << r;
        EXPECT_EQ(ra.recvBlockedTime.ns(), rb.recvBlockedTime.ns())
            << "rank " << r;
        EXPECT_EQ(ra.waitBlockedTime.ns(), rb.waitBlockedTime.ns())
            << "rank " << r;
        EXPECT_EQ(ra.collectiveTime.ns(), rb.collectiveTime.ns())
            << "rank " << r;
        EXPECT_EQ(ra.messagesSent, rb.messagesSent) << "rank " << r;
        EXPECT_EQ(ra.messagesReceived, rb.messagesReceived)
            << "rank " << r;
        EXPECT_EQ(ra.bytesSent, rb.bytesSent) << "rank " << r;
    }
}

/**
 * Two-rank producer/consumer: rank 0 computes `instr` instructions
 * while storing a `bytes`-sized buffer uniformly, then sends it;
 * rank 1 receives and consumes it uniformly across `instr`
 * instructions. The analytically simplest overlap scenario.
 */
inline vm::RankProgram
producerConsumer(Bytes bytes, Instr instr, int pieces = 8)
{
    return [bytes, instr, pieces](vm::VmContext &ctx) {
        if (ctx.rank() == 0) {
            const auto buf = ctx.allocBuffer("payload", bytes);
            ctx.computeStore(buf, 0, bytes,
                             static_cast<double>(instr) /
                                 static_cast<double>(bytes),
                             pieces);
            ctx.send(buf, 0, bytes, 1, 7);
        } else if (ctx.rank() == 1) {
            const auto buf = ctx.allocBuffer("payload", bytes);
            ctx.recv(buf, 0, bytes, 0, 7);
            ctx.computeLoad(buf, 0, bytes,
                            static_cast<double>(instr) /
                                static_cast<double>(bytes),
                            pieces);
        } else {
            ctx.compute(1);
        }
    };
}

/**
 * Two-rank pack-at-end variant: production happens in a tiny copy
 * loop right before the send and consumption in a tiny unpack right
 * after the receive (the pessimal "real" pattern).
 */
inline vm::RankProgram
packedExchange(Bytes bytes, Instr instr)
{
    return [bytes, instr](vm::VmContext &ctx) {
        if (ctx.rank() == 0) {
            const auto buf = ctx.allocBuffer("payload", bytes);
            ctx.compute(instr);
            ctx.computeStore(buf, 0, bytes, 0.1, 4);
            ctx.send(buf, 0, bytes, 1, 9);
        } else if (ctx.rank() == 1) {
            const auto buf = ctx.allocBuffer("payload", bytes);
            ctx.recv(buf, 0, bytes, 0, 9);
            ctx.computeLoad(buf, 0, bytes, 0.1, 4);
            ctx.compute(instr);
        } else {
            ctx.compute(1);
        }
    };
}

/** Symmetric ring exchange over `ranks` ranks, `iters` iterations. */
inline vm::RankProgram
ringExchange(Bytes bytes, Instr instr, int iters)
{
    return [bytes, instr, iters](vm::VmContext &ctx) {
        const Rank right = (ctx.rank() + 1) % ctx.ranks();
        const Rank left =
            (ctx.rank() + ctx.ranks() - 1) % ctx.ranks();
        const auto sbuf = ctx.allocBuffer("ring-send", bytes);
        const auto rbuf = ctx.allocBuffer("ring-recv", bytes);
        for (int it = 0; it < iters; ++it) {
            ctx.compute(instr);
            ctx.computeStore(sbuf, 0, bytes, 0.2, 4);
            ctx.send(sbuf, 0, bytes, right, 5);
            ctx.recv(rbuf, 0, bytes, left, 5);
            ctx.touchLoad(rbuf, 0, bytes);
        }
    };
}

/** Trace the program with compact defaults. */
inline tracer::TraceBundle
traceOf(int ranks, const vm::RankProgram &program,
        const std::string &name = "test-app")
{
    tracer::TracerConfig config;
    config.appName = name;
    return tracer::traceApplication(ranks, program, config);
}

/** Platform with a specific bandwidth, everything else default. */
inline sim::PlatformConfig
platformAt(double bandwidth_mbps)
{
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = bandwidth_mbps;
    return platform;
}

/** `base` with each topology of the list installed, in list order. */
inline std::vector<sim::PlatformConfig>
withTopologies(const sim::PlatformConfig &base,
               const std::vector<core::TopologySpec> &topologies)
{
    std::vector<sim::PlatformConfig> platforms;
    for (const core::TopologySpec &spec : topologies) {
        platforms.push_back(base);
        platforms.back().topology = spec.topology;
    }
    return platforms;
}

/**
 * Every platform of `groups` at every bandwidth of `grid`, group
 * major, as a platform campaign over several groups lists them:
 * group g's point i is entry g * grid.size() + i.
 */
inline std::vector<sim::PlatformConfig>
atBandwidths(const std::vector<sim::PlatformConfig> &groups,
             const std::vector<double> &grid)
{
    std::vector<sim::PlatformConfig> platforms;
    for (const sim::PlatformConfig &group : groups) {
        for (const double bandwidth : grid) {
            platforms.push_back(group);
            platforms.back().bandwidthMBps = bandwidth;
        }
    }
    return platforms;
}

} // namespace ovlsim::testing

#endif // OVLSIM_TESTS_HELPERS_HH
