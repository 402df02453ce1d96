/**
 * @file
 * Golden pins of flat-bus admission: which queued transfer gets the
 * bus, its sender's out link and its receiver's in link when one of
 * them frees, and in which order the winners start.
 *
 * Every replay here runs transfers that queue behind the one in/out
 * link per node of defaultCluster() (or behind a limited bus), so
 * admission order decides event times, event-heap tie-breaks and
 * therefore everything pinned: total simulated time, the number of
 * events processed and an FNV-1a hash of every rank's end time. The
 * values were recorded with the single global wait FIFO that was
 * rescanned in full on every release; per-resource wait lists must
 * reproduce them bit for bit.
 *
 * Covered: the six paper apps, original and both
 * standardVariants(16), at 16 MB/s (deep queues) and 256 MB/s; a
 * two-bus, two-CPU-per-node cluster (bus list plus the intra-node
 * bypass); all-rendezvous sends, whose senders post again inside a
 * release window; background flows that drive free counts negative;
 * and fail-stop rollbacks under checkpointing, which restore the
 * wait lists while transfers are queued.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "core/analysis.hh"
#include "core/transform.hh"
#include "res/fault_model.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "tracer/tracer.hh"

#include "helpers.hh"

namespace ovlsim {
namespace {

/** totalTime (ns), eventsProcessed and end-time hash of one replay. */
struct Pin
{
    std::int64_t totalNs;
    std::uint64_t events;
    std::uint64_t endHash;
};

void
expectPin(const sim::SimResult &run, const Pin &pin,
          const std::string &what)
{
    EXPECT_EQ(run.totalTime.ns(), pin.totalNs) << what;
    EXPECT_EQ(run.eventsProcessed, pin.events) << what;
    EXPECT_EQ(testing::endTimeHash(run), pin.endHash) << what;
}

const std::vector<std::string> paperApps = {
    "nas-bt", "nas-cg", "pop", "alya", "specfem", "sweep3d"};

/** One app traced at the benchmark's eight iterations, then its
 * original and standardVariants(16) programs (traced once per
 * process). */
const std::vector<trace::TraceSet> &
programsOf(const std::string &name)
{
    static std::map<std::string, std::vector<trace::TraceSet>> cache;
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;
    const auto &app = apps::findApp(name);
    auto params = app.defaults();
    params.iterations = 8;
    tracer::TracerConfig config;
    config.appName = name;
    const auto bundle = tracer::traceApplication(
        params.ranks, app.program(params), config);
    std::vector<trace::TraceSet> traces{bundle.traces};
    for (const auto &variant : core::standardVariants(16)) {
        traces.push_back(core::buildOverlappedTrace(
                             bundle.traces, bundle.overlap,
                             variant.config)
                             .traces);
    }
    return cache.emplace(name, std::move(traces)).first->second;
}

/** Replay the six apps (original, then both variants) on `platform`
 * against 18 pins in paperApps order. */
void
expectPaperApps(const sim::PlatformConfig &platform,
                const std::vector<Pin> &pins)
{
    ASSERT_EQ(pins.size(), paperApps.size() * 3);
    sim::ReplaySession session;
    std::size_t k = 0;
    for (const auto &name : paperApps) {
        const auto &programs = programsOf(name);
        ASSERT_EQ(programs.size(), 3u);
        for (std::size_t v = 0; v < programs.size(); ++v, ++k) {
            expectPin(session.run(programs[v], platform), pins[k],
                      name + " program " + std::to_string(v));
        }
    }
}

TEST(BusAdmissionPinTest, PaperAppsAt16MBps)
{
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 16.0;
    expectPaperApps(platform, {
        // nas-bt: original, then both variants
        {71661056, 1568, 0x19945e4926d97c45ULL},
        {71052800, 18720, 0x42d9e2cb54eb7e3dULL},
        {49376336, 20768, 0xb6d6d9f49e4abbd5ULL},
        // nas-cg: original, then both variants
        {28727296, 1072, 0x621fc854dcb939c5ULL},
        {28579840, 4240, 0x83311856d96853e5ULL},
        {26976256, 6832, 0xd5b95c706a6d2de5ULL},
        // pop: original, then both variants
        {42932480, 10128, 0x83a2c35372ebe405ULL},
        {42702656, 25488, 0x225d64b7ae8ff1a5ULL},
        {36909904, 21392, 0x4fd31149d5be3925ULL},
        // alya: original, then both variants
        {411800576, 1744, 0x550eef49ccf8b865ULL},
        {382481408, 20112, 0x7d02806b0590c0a5ULL},
        {368608256, 21904, 0x4c71f6fb12c3dd25ULL},
        // specfem: original, then both variants
        {2096838400, 1168, 0x20ac293d2a9e2585ULL},
        {2092332800, 17040, 0xdafd681b748c3d45ULL},
        {2115468800, 16528, 0x486a76acd2bf2da5ULL},
        // sweep3d: original, then both variants
        {398434432, 8193, 0x0c085f8cdc1b07beULL},
        {401634624, 98433, 0xf8abffa45cf281c6ULL},
        {269284487, 114494, 0x9f5cb587d5757572ULL},
    });
}

TEST(BusAdmissionPinTest, PaperAppsAt256MBps)
{
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 256.0;
    expectPaperApps(platform, {
        // nas-bt: original, then both variants
        {28161024, 1568, 0xfd425b4385b0b2d5ULL},
        {27552768, 18720, 0x31eb491c7bade76dULL},
        {25153024, 20768, 0x671a42acbf2270c5ULL},
        // nas-cg: original, then both variants
        {5507392, 1072, 0xfec539aeb611d065ULL},
        {5359936, 4240, 0x78d17d829299b785ULL},
        {3907392, 6832, 0x84ada3848fee4ec5ULL},
        // pop: original, then both variants
        {15812352, 10128, 0x205a124be7ad3aa5ULL},
        {15550528, 25488, 0x63beacb008be6b25ULL},
        {14259728, 21392, 0xc96f47b2d040e0c5ULL},
        // alya: original, then both variants
        {43075968, 1744, 0x2639fd2cae079565ULL},
        {39078784, 20112, 0x6bfb8f7ca2b906a5ULL},
        {28939648, 21904, 0x5468b4117f5eab65ULL},
        // specfem: original, then both variants
        {176808384, 1168, 0xbb1039dde8523ee5ULL},
        {172302784, 17040, 0x7a0d6525be285c25ULL},
        {135515584, 16528, 0x822a38915117cd25ULL},
        // sweep3d: original, then both variants
        {114670208, 8193, 0x579992b40d0da4d0ULL},
        {113882480, 98433, 0xa1d787d2c3e8139aULL},
        {64285885, 114494, 0xfe7f7da70f293a2dULL},
    });
}

TEST(BusAdmissionPinTest, TwoBusesTwoCpusPerNode)
{
    // Two buses shared by eight nodes: every remote transfer also
    // waits on the bus list, and rank pairs sharing a node bypass
    // admission altogether.
    auto platform = sim::platforms::contendedCluster(2, 2);
    platform.bandwidthMBps = 64.0;
    expectPaperApps(platform, {
        // nas-bt: original, then both variants
        {71199872, 1568, 0xed36ac21ebb7a0b5ULL},
        {70702208, 18720, 0x57b4f9b0ff4f13fdULL},
        {49122512, 20768, 0xf60ae9f392651a91ULL},
        // nas-cg: original, then both variants
        {40871296, 1072, 0x6d056b5cecffaac5ULL},
        {40723840, 4240, 0xeee4df935ad12c65ULL},
        {39120256, 6832, 0xddc559e11dcbef65ULL},
        // pop: original, then both variants
        {42259056, 10128, 0xd0cf6be9ec5fea25ULL},
        {42126280, 25488, 0x44779dbd8681d545ULL},
        {34339992, 21392, 0xe2e1879131955b05ULL},
        // alya: original, then both variants
        {381376640, 1744, 0x203589175d76ae05ULL},
        {381778048, 20112, 0xa63440a53235f505ULL},
        {359229568, 21904, 0x432e53c6d6b6bcc5ULL},
        // specfem: original, then both variants
        {2093128000, 1168, 0xe39c2ec9a694f585ULL},
        {2087393600, 17040, 0xa86171f8213c8225ULL},
        {2051368000, 16528, 0x7fbc02ef55c002c5ULL},
        // sweep3d: original, then both variants
        {265501504, 8193, 0xbc1a2d74c7d46d00ULL},
        {268014896, 98433, 0x1bae72fd8d7d00eaULL},
        {237836092, 114494, 0x35f6ec1205714549ULL},
    });
}

TEST(BusAdmissionPinTest, RendezvousPostsInsideTheReleaseWindow)
{
    // Every send rendezvous: a blocked sender wakes when its
    // injection frees its links and posts again before the freed
    // lists are scanned, and receives it posts make other nodes'
    // sends eligible — transfers that must queue behind older
    // waiters, some on lists the release did not touch. The
    // originals except sweep3d deadlock on send-send cycles under
    // rendezvous, so only their variants (non-blocking posts) run.
    // A send posted after its receive becomes eligible at the match,
    // its own post, not at the receive's.
    auto links = sim::platforms::defaultCluster();
    auto buses = sim::platforms::contendedCluster(2, 2);
    const std::vector<std::vector<Pin>> pins = {
        {
            // nas-bt .. specfem: both variants
            {71052800, 18720, 0x42d9e2cb54eb7e3dULL},
            {49376336, 20768, 0xb6d6d9f49e4abbd5ULL},
            {28579840, 4240, 0x83311856d96853e5ULL},
            {26976256, 6832, 0xd5b95c706a6d2de5ULL},
            {42702656, 25488, 0x225d64b7ae8ff1a5ULL},
            {36909904, 21392, 0x4fd31149d5be3925ULL},
            {382481408, 20112, 0x7d02806b0590c0a5ULL},
            {368608256, 21904, 0x4c71f6fb12c3dd25ULL},
            {2092332800, 17040, 0xdafd681b748c3d45ULL},
            {2115468800, 16528, 0x486a76acd2bf2da5ULL},
            // sweep3d: original, then both variants
            {660302208, 8193, 0x7c3031c48e925df5ULL},
            {401634624, 98433, 0xf8abffa45cf281c6ULL},
            {269284487, 114494, 0x9f5cb587d5757572ULL},
        },
        {
            // the same on the two-bus, two-CPU-per-node cluster
            {209182208, 18720, 0xffbf1968eb61eb6dULL},
            {187602512, 20768, 0x52e4c92e27468785ULL},
            {151459840, 4240, 0x87199b52d52590a5ULL},
            {149856256, 6832, 0x260191507b9af325ULL},
            {128334280, 25488, 0x4e05fe21a3dd6265ULL},
            {120547992, 21392, 0x05baf333ca1edf25ULL},
            {1478530048, 20112, 0xe6c7c1f8d3bf9c25ULL},
            {1419117568, 21904, 0x902bed47fdf66425ULL},
            {8231417600, 17040, 0x9fef573c850473a5ULL},
            {8195392000, 16528, 0x7cdae0ce600b5325ULL},
            {950166080, 8193, 0x25981a89a0a5a799ULL},
            {1004866336, 98433, 0x640e98c39b93942bULL},
            {967437690, 114494, 0x3c027e96753ae35fULL},
        },
    };
    std::size_t p = 0;
    for (auto platform : {links, buses}) {
        platform.bandwidthMBps = 16.0;
        platform.eagerThreshold = 0;
        sim::ReplaySession session;
        std::size_t k = 0;
        for (const auto &name : paperApps) {
            const auto &programs = programsOf(name);
            for (std::size_t v = name == "sweep3d" ? 0 : 1;
                 v < programs.size(); ++v, ++k) {
                expectPin(session.run(programs[v], platform),
                          pins[p][k],
                          platform.name + " " + name + " program " +
                              std::to_string(v));
            }
        }
        ++p;
    }
}

scen::ScenarioEvent
background(double us, int src, int dst, Bytes bytes)
{
    scen::ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = scen::ScenEventKind::background;
    ev.nodeA = src;
    ev.nodeB = dst;
    ev.bytes = bytes;
    return ev;
}

TEST(BusAdmissionPinTest, BackgroundFlowsDriveFreeCountsNegative)
{
    // Overlapping background flows out of node 0 and into node 5
    // hold links the app is already using, so the out/in free
    // counts (and, on the one-bus cluster, the bus count) go
    // negative; releases then have to climb back above zero before
    // anything queued can start.
    scen::ScenarioConfig scenario;
    for (const double us : {2'000.0, 2'500.0, 9'000.0, 9'200.0}) {
        scenario.events.push_back(background(us, 0, 5, 1 << 20));
        scenario.events.push_back(background(us + 100.0, 3, 5, 1 << 19));
    }
    scenario.events.push_back(background(4'000.0, 7, 0, 1 << 20));

    const auto &programs = programsOf("sweep3d");
    auto links = sim::platforms::defaultCluster();
    links.bandwidthMBps = 64.0;
    auto bus = sim::platforms::contendedCluster(1, 1);
    bus.bandwidthMBps = 64.0;
    const std::vector<Pin> pins = {
        // one in/out link per node: original, then both variants
        {170035240, 8211, 0x0733da58ea9c9f6aULL},
        {166002438, 98451, 0x2b28b2e1d0385e11ULL},
        {90136254, 114512, 0x7302ef5a51393444ULL},
        // the same behind a single bus
        {704160992, 8211, 0x922996f9971a7d30ULL},
        {704036217, 98451, 0x03e95f739043fdb6ULL},
        {687334619, 114512, 0x992d5706d426c70bULL},
    };
    sim::ReplaySession session;
    std::size_t k = 0;
    for (auto platform : {links, bus}) {
        const auto quiet = session.run(programs[0], platform);
        platform.scenario = scenario;
        for (std::size_t v = 0; v < programs.size(); ++v, ++k) {
            const auto run = session.run(programs[v], platform);
            expectPin(run, pins[k],
                      platform.name + " program " + std::to_string(v));
            if (v == 0) {
                EXPECT_GT(run.totalTime.ns(), quiet.totalTime.ns());
            }
        }
    }
}

TEST(BusAdmissionPinTest, FailStopRollbacksRestoreQueuedTransfers)
{
    // The faults-ckpt recipe on sweep3d at 16 MB/s, where the link
    // queues are deep: per-node fail-stop processes, checkpoints
    // every sixth of the nominal run. Every rollback restores wait
    // lists that hold queued transfers.
    const auto &programs = programsOf("sweep3d");
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 16.0;
    sim::ReplaySession session;
    const SimTime nominal = session.run(programs[0], platform).totalTime;

    platform.checkpointIntervalUs = nominal.toUs() / 6.0;
    platform.checkpointCostUs = platform.checkpointIntervalUs / 50.0;
    platform.restartCostUs = platform.checkpointIntervalUs / 10.0;
    res::FaultModel model;
    for (int node = 0; node < 16; ++node) {
        res::FaultProcess proc;
        proc.target = scen::ScenTarget::node;
        proc.nodeA = node;
        proc.effect = res::FaultEffect::failStop;
        proc.mtbfUs = nominal.toUs() * 4.0;
        model.processes.push_back(proc);
    }
    platform.scenario = res::generateScenario(model, 7, nominal * 4);

    const std::vector<Pin> pins = {
        {505580100, 9912, 0x7adc093cce56c655ULL},
        {508780292, 119514, 0x113c0dba42f53393ULL},
        {307932363, 125683, 0x87e0f72dbb64f505ULL},
    };
    for (std::size_t v = 0; v < programs.size(); ++v) {
        const auto run = session.run(programs[v], platform);
        expectPin(run, pins[v], "program " + std::to_string(v));
        EXPECT_GT(run.restarts, 0u) << "program " << v;
    }
}

} // namespace
} // namespace ovlsim
