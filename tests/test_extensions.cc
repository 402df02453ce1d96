/**
 * @file
 * Tests for the potential-analysis report and platform config files.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/potential.hh"
#include "sim/engine.hh"
#include "sim/platform_file.hh"
#include "tests/helpers.hh"
#include "util/logging.hh"

namespace ovlsim {
namespace {

TEST(PotentialTest, PackedPatternsHaveNoSlack)
{
    const auto bundle = testing::traceOf(
        2, testing::packedExchange(128 * 1024, 1'000'000));
    const auto report =
        core::analyzePotential(bundle.overlap);
    ASSERT_EQ(report.messages.size(), 1u);
    // Pack right before the send, unpack right after the recv:
    // both slack fractions are tiny.
    EXPECT_LT(report.productionSlack.mean(), 0.05);
    EXPECT_LT(report.consumptionSlack.mean(), 0.15);
}

TEST(PotentialTest, ProgressivePatternsHaveLargeSlack)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(128 * 1024, 1'000'000, 16));
    const auto report =
        core::analyzePotential(bundle.overlap);
    ASSERT_EQ(report.messages.size(), 1u);
    // Uniform production: mean completion is mid-window, so mean
    // slack is around half the window on both sides.
    EXPECT_GT(report.productionSlack.mean(), 0.3);
    EXPECT_GT(report.consumptionSlack.mean(), 0.3);
    EXPECT_LE(report.productionSlack.max(), 1.0);
    EXPECT_FALSE(report.toString().empty());
}

TEST(PotentialTest, SlackFractionsAreBounded)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 2));
    const auto report =
        core::analyzePotential(bundle.overlap);
    for (const auto &m : report.messages) {
        EXPECT_GE(m.productionSlackFraction(), 0.0);
        EXPECT_LE(m.productionSlackFraction(), 1.0);
        EXPECT_GE(m.consumptionSlackFraction(), 0.0);
        EXPECT_LE(m.consumptionSlackFraction(), 1.0);
    }
}

TEST(PotentialTest, EmptyOverlapSet)
{
    const trace::OverlapSet empty;
    const auto report = core::analyzePotential(empty);
    EXPECT_TRUE(report.messages.empty());
    EXPECT_FALSE(report.toString().empty());
}

TEST(PlatformFileTest, RoundTripPreservesEveryField)
{
    sim::PlatformConfig config;
    config.name = "round-trip";
    config.mipsOverride = 2500.0;
    config.cpuRatio = 1.5;
    config.cpusPerNode = 4;
    config.bandwidthMBps = 123.25;
    config.latencyUs = 3.5;
    config.localBandwidthMBps = 9999.0;
    config.localLatencyUs = 0.25;
    config.buses = 7;
    config.outLinksPerNode = 2;
    config.inLinksPerNode = 3;
    config.eagerThreshold = 12345;
    config.forceEagerIsend = false;
    config.rendezvousOverheadUs = 1.25;
    config.collectives.latencyFactor = 0.5;
    config.collectives.bandwidthFactor = 2.0;

    std::stringstream stream;
    sim::writePlatformConfig(config, stream);
    const auto parsed = sim::readPlatformConfig(stream);

    EXPECT_EQ(parsed.name, config.name);
    EXPECT_DOUBLE_EQ(parsed.mipsOverride, config.mipsOverride);
    EXPECT_DOUBLE_EQ(parsed.cpuRatio, config.cpuRatio);
    EXPECT_EQ(parsed.cpusPerNode, config.cpusPerNode);
    EXPECT_DOUBLE_EQ(parsed.bandwidthMBps,
                     config.bandwidthMBps);
    EXPECT_DOUBLE_EQ(parsed.latencyUs, config.latencyUs);
    EXPECT_DOUBLE_EQ(parsed.localBandwidthMBps,
                     config.localBandwidthMBps);
    EXPECT_DOUBLE_EQ(parsed.localLatencyUs,
                     config.localLatencyUs);
    EXPECT_EQ(parsed.buses, config.buses);
    EXPECT_EQ(parsed.outLinksPerNode, config.outLinksPerNode);
    EXPECT_EQ(parsed.inLinksPerNode, config.inLinksPerNode);
    EXPECT_EQ(parsed.eagerThreshold, config.eagerThreshold);
    EXPECT_EQ(parsed.forceEagerIsend, config.forceEagerIsend);
    EXPECT_DOUBLE_EQ(parsed.rendezvousOverheadUs,
                     config.rendezvousOverheadUs);
    EXPECT_DOUBLE_EQ(parsed.collectives.latencyFactor,
                     config.collectives.latencyFactor);
    EXPECT_DOUBLE_EQ(parsed.collectives.bandwidthFactor,
                     config.collectives.bandwidthFactor);
}

TEST(PlatformFileTest, CommentsAndDefaults)
{
    std::stringstream stream(
        "# a comment\n"
        "\n"
        "bandwidth_mbps = 64\n"
        "  latency_us   =  2.5  \n");
    const auto parsed = sim::readPlatformConfig(stream);
    EXPECT_DOUBLE_EQ(parsed.bandwidthMBps, 64.0);
    EXPECT_DOUBLE_EQ(parsed.latencyUs, 2.5);
    // Untouched fields keep their defaults.
    EXPECT_EQ(parsed.cpusPerNode, 1);
}

TEST(PlatformFileTest, RejectsUnknownKeysAndGarbage)
{
    std::stringstream unknown("frobnication_level = 9\n");
    EXPECT_THROW(sim::readPlatformConfig(unknown), FatalError);

    std::stringstream garbage("bandwidth_mbps 64\n");
    EXPECT_THROW(sim::readPlatformConfig(garbage), FatalError);

    std::stringstream invalid("bandwidth_mbps = -4\n");
    EXPECT_THROW(sim::readPlatformConfig(invalid), FatalError);

    // 64-bit values must not wrap into small valid-looking ints; the
    // error names the file and line.
    for (const char *wide :
         {"buses = 4294967298\n", "cpus_per_node = 4294967298\n",
          "out_links_per_node = 4294967297\n"}) {
        std::stringstream in(std::string("name = wide\n") + wide);
        try {
            sim::readPlatformConfig(in, "wide.cfg");
            ADD_FAILURE() << "accepted " << wide;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("wide.cfg line 2"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(PlatformFileTest, FileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "ovl_platform.cfg";
    auto config = sim::platforms::contendedCluster(4, 2);
    config.bandwidthMBps = 777.0;
    sim::writePlatformConfigFile(config, path);
    const auto parsed = sim::readPlatformConfigFile(path);
    EXPECT_DOUBLE_EQ(parsed.bandwidthMBps, 777.0);
    EXPECT_EQ(parsed.buses, 4);
    EXPECT_EQ(parsed.cpusPerNode, 2);
}

TEST(PlatformFileTest, LoadedConfigDrivesSimulation)
{
    std::stringstream stream("bandwidth_mbps = 256\n"
                             "latency_us = 8\n");
    const auto platform = sim::readPlatformConfig(stream);
    const auto bundle = testing::traceOf(
        2, testing::packedExchange(64 * 1024, 100'000));
    const auto from_file = sim::simulate(bundle.traces, platform);
    const auto from_code = sim::simulate(
        bundle.traces, sim::platforms::defaultCluster());
    EXPECT_EQ(from_file.totalTime.ns(),
              from_code.totalTime.ns());
}

} // namespace
} // namespace ovlsim
