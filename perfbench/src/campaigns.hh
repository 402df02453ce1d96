/**
 * @file
 * The benchmark's three campaign workloads.
 *
 * Each workload builds its inputs once (setup), then runs whole
 * campaigns in one of two ways that must agree bit for bit:
 * through the public campaign drivers (core::bandwidthSweep,
 * core::scalingSweep, core::resilienceSweep) — the end-to-end path —
 * or as the same sequence of explicit calls into each layer's public
 * functions, every call wrapped in a span (the traced path). Both
 * return one PointRecord per campaign point: the point's simulated
 * outputs rendered canonically, engine work counters excluded.
 */

#ifndef OVLSIM_PERFBENCH_CAMPAIGNS_HH
#define OVLSIM_PERFBENCH_CAMPAIGNS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "traced.hh"

namespace perfbench {

/** One campaign point's simulated outputs. */
struct PointRecord
{
    std::string label;
    /** Canonical text of the outputs (exact: integer ns, hex
     * floats). */
    std::string outputs;

    /** FNV-1a of `outputs`. */
    std::string digest() const;
};

using Records = std::vector<PointRecord>;

/** Digest of a whole campaign: FNV-1a over "label digest" lines. */
std::string simDigest(const Records &records);

/** Campaign sizes. The defaults are the benchmark's; the tests
 * shrink them. */
struct Spec
{
    // paper-r1
    std::vector<std::string> apps{"nas-bt",  "nas-cg", "pop",
                                  "alya",    "specfem", "sweep3d"};
    int iterations = 8;
    double bwLoMBps = 1.0;
    double bwHiMBps = 65536.0;
    int bwPerDecade = 4;
    std::size_t chunks = 16;

    // gen-scale
    std::vector<int> mlRanks{64, 128, 256, 512, 1024};
    std::vector<int> stencilRanks{32, 64, 128};

    // faults-ckpt (multiples of the nominal run)
    std::string faultApp = "sweep3d";
    double mtbfLo = 2.0;
    double mtbfHi = 200.0;
    int mtbfPerDecade = 3;
    std::uint32_t faultSeeds = 8;
};

/** A small Spec for tests: every workload runs in well under a
 * second. */
Spec smallSpec();

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;
    /** Whether --seed reaches the inputs; a seed-invariant workload
     * shares one reference across seeds. */
    virtual bool seedSensitive() const = 0;
    /** Campaign points per campaign. */
    virtual std::size_t points() const = 0;

    /** Build the inputs (the set-up the benchmark times); spans go
     * to `tracer` when non-null. */
    virtual void setup(Tracer *tracer) = 0;
    /** One campaign through the public campaign drivers. */
    virtual Records campaign(int lanes) = 0;
    /** The same campaign as explicit per-layer calls on a pool of
     * `lanes` lanes, every call recorded in `tracer`. */
    virtual Records tracedCampaign(int lanes, Tracer &tracer) = 0;
    /** Workload-specific per-layer figures (differential probes and
     * ratios over the last traced campaign). May run extra replays;
     * they are timed by the benchmark, outside any campaign. */
    virtual void probes(const Tracer &campaign, Metrics &metrics) = 0;
};

/** "paper-r1", "gen-scale" or "faults-ckpt"; null for an unknown
 * name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const Spec &spec = Spec{});

const std::vector<std::string> &workloadNames();

/**
 * Mean absolute difference (percentage points) between the
 * simulated ideal-pattern speedup at each paper app's intermediate
 * bandwidth and the paper's reported figure (the R2 table of
 * bench_intermediate_speedup).
 */
double paperErrorPp();

} // namespace perfbench

#endif // OVLSIM_PERFBENCH_CAMPAIGNS_HH
