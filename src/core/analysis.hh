/**
 * @file
 * Quantitative analyses over original vs. overlapped executions.
 *
 * These functions implement the paper's three result families:
 * bandwidth sweeps comparing the non-overlapped execution against the
 * overlapped variants (R1), speedup at the "intermediate" bandwidth
 * where communication time is comparable to computation time (R2),
 * and the iso-performance bandwidth-relaxation analysis showing how
 * much less bandwidth the overlapped execution needs to match the
 * original's performance at high bandwidth (R3). The R1 sweep is one
 * case of the platform campaign (platformSweep), which replays the
 * same programs on any list of platforms: bandwidths, topologies,
 * collective models, dynamic scenarios or a mix of them.
 *
 * Every campaign driver below runs on `threads` lanes (<= 0 means
 * all hardware cores; never more than its widest stage has tasks).
 * It prepares first (generates each point and lowers each program
 * once, sim/program.hh), then replays, costliest compiled program
 * first. A program equal to an earlier one of its point (an
 * all-collective trace's variants, which the transform leaves
 * alone) shares that program, and only the first replays: the
 * others copy its outcome and stats. Every task writes only its
 * own result slots and stats fold sequentially, so results are
 * bit-identical at any thread count and to replaying every slot.
 */

#ifndef OVLSIM_CORE_ANALYSIS_HH
#define OVLSIM_CORE_ANALYSIS_HH

#include <string>
#include <vector>

#include "core/transform.hh"
#include "gen/gen.hh"
#include "net/topology.hh"
#include "obs/chrome_trace.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "scen/scenario.hh"
#include "sim/engine.hh"
#include "tracer/tracer.hh"

namespace ovlsim::core {

/**
 * Opt-in campaign observability (src/obs/). Passed by pointer with
 * a null default, so instrumented sweeps cost nothing to callers
 * that don't ask: a null hook skips every branch, and the engine
 * counters are aggregated into the result structs either way.
 */
struct CampaignObs
{
    /** Ticked once per completed sweep point (or per (rate, seed)
     * job of a resilience campaign), by the task that retires the
     * point's last distinct replay; null = no progress output. */
    obs::Progress *progress = nullptr;
    /** Record one host-time span per lane task (compile, prepare,
     * replay, job) for Chrome-trace export via
     * obs::writeChromeTrace. */
    bool recordSpans = false;
    /** Filled on return when recordSpans: one span per labelled
     * lane task, timed by the lane runner into per-lane lists and
     * appended stage by stage, each stage ordered by (begin, lane).
     * Times count from the campaign's start. Spans record only the
     * replays that ran; a slot that copied an equal program's
     * outcome has none, though the result's stats fold it. */
    std::vector<obs::LaneSpan> spans;
};

/** A named overlapped variant to include in a comparison. */
struct VariantSpec
{
    std::string name;
    TransformConfig config;
};

/** The paper's two headline variants: real and ideal patterns, full
 * mechanism. */
std::vector<VariantSpec> standardVariants(std::size_t chunks = 16);

/** Log-spaced bandwidth grid in MB/s from lo > 0 to hi; a
 * FatalError unless lo < hi. */
std::vector<double> logBandwidthGrid(double lo_mbps, double hi_mbps,
                                     int points_per_decade = 2);

/** One platform's sample of a sweep. */
struct SweepPoint
{
    /** The platform's link bandwidth. */
    double bandwidthMBps = 0.0;
    SimTime originalTime;
    double originalCommFraction = 0.0;
    /** Parallel to SweepResult::variants. */
    std::vector<SimTime> variantTimes;
    /** Engine counters of this point's replays (original and every
     * variant), merged. */
    obs::EngineStats stats;

    /** Speedup of variant v over the original (1.0 = equal). */
    double speedup(std::size_t v) const;
};

/** Platform campaign outcome. */
struct SweepResult
{
    std::vector<VariantSpec> variants;
    /** Parallel to the campaign's platform list. */
    std::vector<SweepPoint> points;
    /** Point stats folded over the whole sweep. */
    obs::EngineStats stats;
};

/**
 * The platform campaign: simulate the original and every variant on
 * every platform of the list, point i on platforms[i]. A campaign
 * over several platform groups (say topologies x bandwidths) lists
 * them group-major and reads each group as a slice of `points`.
 *
 * The original and every variant compile once into shared programs
 * that every point replays, one task per (point, distinct program),
 * the costliest program (usually a variant) first; a variant equal
 * to an earlier program copies its times and stats. A replay that
 * throws ends the campaign, and at one thread the first to fail in
 * that order is rethrown: a fail-stop on a platform without
 * checkpointing is an error here, where resilienceSweep reports it
 * as data.
 */
SweepResult
platformSweep(const tracer::TraceBundle &bundle,
              const std::vector<sim::PlatformConfig> &platforms,
              const std::vector<VariantSpec> &variants,
              int threads = 1, CampaignObs *cobs = nullptr);

/** platformSweep on `base` at every bandwidth of the grid. */
SweepResult bandwidthSweep(const tracer::TraceBundle &bundle,
                           const sim::PlatformConfig &base,
                           const std::vector<double> &bandwidths,
                           const std::vector<VariantSpec> &variants,
                           int threads = 1,
                           CampaignObs *cobs = nullptr);

/** One rank-count sample of a scaling sweep. */
struct ScalingPoint
{
    int ranks = 0;
    /** Point-to-point payload bytes of the generated workload. */
    Bytes sentBytes = 0;
    /** Point-to-point message count of the generated workload. */
    std::size_t messages = 0;
    SimTime originalTime;
    double originalCommFraction = 0.0;
    /** Parallel to ScalingResult::variants. */
    std::vector<SimTime> variantTimes;
    /** Engine counters of this point's replays, merged. */
    obs::EngineStats stats;

    /** Speedup of variant v over the original (1.0 = equal). */
    double speedup(std::size_t v) const;
};

/** Scaling sweep outcome. */
struct ScalingResult
{
    std::vector<VariantSpec> variants;
    std::vector<ScalingPoint> points;
    /** Point stats folded over the whole sweep. */
    obs::EngineStats stats;
};

/**
 * Run one synthetic workload (src/gen/) across a rank-count grid:
 * for every grid point the workload is re-targeted at that rank
 * count (gen::withRankCount), generated, and replayed on `base` as
 * the original and every overlapped variant. This is the question
 * recorded traces cannot answer — how the overlap benefit moves as
 * the machine grows — and the reason the generators exist.
 *
 * Prepare generates each point once (largest rank count first)
 * and lowers its original and every variant, dropping a program
 * equal to an earlier one of the point; the trace set dies there.
 * Replay then runs one task per distinct program of a point,
 * costliest first, so the largest point's replays start first
 * instead of running alone at the end. Generation is a pure
 * function of (workload, seed) through the counter-based RNG.
 */
ScalingResult scalingSweep(const gen::WorkloadConfig &workload,
                           std::uint64_t seed,
                           const sim::PlatformConfig &base,
                           const std::vector<int> &rank_grid,
                           const std::vector<VariantSpec> &variants,
                           int threads = 1,
                           CampaignObs *cobs = nullptr);

/** A named interconnect to include in a platform campaign. */
struct TopologySpec
{
    std::string name;
    net::TopologyConfig topology;
};

/**
 * The standard topology set campaigns sweep: the flat bus baseline,
 * a full-bisection fat tree, a 2:1-per-level tapered fat tree, a
 * wrapped 2-D torus and a dragonfly (the latter two auto-sized to
 * the node count at route compilation).
 */
std::vector<TopologySpec> standardTopologies();

/** Aggregates of one (failure rate x variant) campaign cell. */
struct ResilienceCell
{
    /**
     * Completion time per seed, parallel to the campaign's seed
     * indices; SimTime::max() marks a failed run (a fail-stop with
     * checkpointing disabled, or a restart budget exhausted).
     */
    std::vector<SimTime> seedTimes;
    /**
     * Structured why-it-died reports, parallel to seedTimes: the
     * FailureDiagnosis of every failed seed (which event fired,
     * when, and the ranks left unfinished), default-constructed
     * (empty `event`) for seeds that completed. Campaign tables
     * print these next to failedFraction instead of discarding the
     * forensic detail the engine already assembled.
     */
    std::vector<scen::FailureDiagnosis> seedDiagnoses;
    /** Mean over surviving seeds (integer-ns mean; zero when every
     * seed failed). */
    SimTime meanTime;
    /** Nearest-rank 95th percentile over surviving seeds. */
    SimTime p95Time;
    /** Fraction of seeds whose replay never finished. */
    double failedFraction = 0.0;
};

/** One failure-rate sample of a resilience campaign. */
struct ResiliencePoint
{
    /** Per-node mean time between fail-stop faults (us). */
    double mtbfUs = 0.0;
    /** Cell 0 is the original; then parallel to variants. */
    std::vector<ResilienceCell> cells;
};

/** Resilience campaign outcome. */
struct ResilienceResult
{
    std::vector<VariantSpec> variants;
    std::uint32_t seedCount = 0;
    /** Fault horizon applied to every generated scenario. */
    SimTime horizon;
    std::vector<ResiliencePoint> points;
    /** Engine counters of every replay the campaign ran, merged
     * (nominal pre-pass included). */
    obs::EngineStats stats;
};

/**
 * The resilience campaign: replay the original and every overlapped
 * variant across a failure-rate grid x `seed_count` seeds, under
 * `base`'s checkpoint/restart cost model (src/res/). For each grid
 * point one per-node fail-stop exponential process at that MTBF is
 * expanded (res::generateScenario) per seed — the same generated
 * scenario is applied to the original and every variant of the
 * (rate, seed) row, so cells compare under identical fault
 * sequences. A failure-free pre-pass sets the fault horizon at 4x
 * the slowest nominal run, so heavily reworked replays finish on a
 * fault-free tail instead of diverging; runs that still die (no
 * checkpointing, or restart budget exhausted) are reported as data
 * in failedFraction rather than thrown.
 *
 * A (rate, seed) job is one task replaying every distinct program
 * (a variant equal to an earlier program copies its time or
 * diagnosis and its stats, in the nominal pre-pass too), and jobs
 * run in grid order. Scenario expansion is a pure function of
 * (seed, grid index, seed index) through the counter-based RNG and
 * the aggregates use integer arithmetic.
 */
ResilienceResult
resilienceSweep(const tracer::TraceBundle &bundle,
                const sim::PlatformConfig &base,
                const std::vector<double> &mtbf_grid_us,
                const std::vector<VariantSpec> &variants,
                std::uint32_t seed_count, std::uint64_t seed = 1,
                int threads = 1, CampaignObs *cobs = nullptr);

/**
 * One checkpointing protocol to compare in protocolSweep(): a named
 * cost model laid over the swept checkpoint interval. A protocol
 * with globalIntervalFactor == 0 is classic single-level
 * checkpoint/restart; a positive factor enables the two-level
 * hierarchy with the global interval riding at `factor x` the swept
 * local interval (e.g. factor 4 = every fourth local checkpoint is
 * also flushed to the global store).
 */
struct CheckpointProtocol
{
    std::string name;
    /** Per-local-checkpoint freeze cost (platform
     * checkpoint_cost_us). */
    double checkpointCostUs = 0.0;
    /** Rollback-to-local-snapshot cost (restart_cost_us). */
    double restartCostUs = 0.0;
    /** Global interval as a multiple of the swept local interval;
     * 0 disables the second level. */
    double globalIntervalFactor = 0.0;
    /** Extra freeze cost of a global checkpoint
     * (checkpoint_global_cost_us). */
    double checkpointGlobalCostUs = 0.0;
    /** Rollback-to-global-snapshot cost (restart_global_cost_us). */
    double restartGlobalCostUs = 0.0;
};

/** One (protocol x interval) cell of a protocol sweep. */
struct ProtocolCell
{
    /** Swept local checkpoint interval (us). */
    double intervalUs = 0.0;
    ResilienceCell cell;
};

/** One protocol's row across the interval grid. */
struct ProtocolSweepRow
{
    CheckpointProtocol protocol;
    /** Parallel to the interval grid. */
    std::vector<ProtocolCell> cells;
    /** Interval minimising mean completion time over surviving
     * seeds (argmin over the grid; cells where every seed died are
     * skipped). 0 when no cell survived. */
    double bestIntervalUs = 0.0;
    /** res::dalyInterval(M, checkpointCostUs) with M the *system*
     * MTBF — failure rates of the per-node processes and the
     * machine-wide one summed — which is the mean Daly's formula is
     * stated over. The analytic first-order optimum to print next
     * to the swept one. */
    double dalyIntervalUs = 0.0;
};

/** Protocol-comparison campaign outcome. */
struct ProtocolSweepResult
{
    /** Per-node fail-stop MTBF driving every cell (us). */
    double mtbfUs = 0.0;
    /** Machine-wide fail-stop MTBF (0 = no machine-wide process). */
    double machineMtbfUs = 0.0;
    std::uint32_t seedCount = 0;
    /** Fault horizon applied to every generated scenario. */
    SimTime horizon;
    /** Swept local checkpoint intervals (us). */
    std::vector<double> intervalGridUs;
    std::vector<ProtocolSweepRow> rows;
};

/**
 * The protocol-comparison campaign: replay the original program
 * under every (protocol, checkpoint interval, seed) combination at
 * a fixed failure rate and report mean completion time per cell,
 * the swept optimal interval per protocol, and Daly's analytic
 * prediction next to it. Faults are one per-node fail-stop
 * exponential process at `mtbf_us` per node, plus — when
 * `machine_mtbf_us` > 0 — one machine-wide (`process all`)
 * fail-stop process, which two-level protocols recover from their
 * global snapshot and single-level protocols from their local one,
 * so the hierarchy's cost/benefit shows up as data. The same
 * generated scenario is applied to every (protocol, interval) cell
 * of a seed, so protocols compare under identical fault sequences.
 * A failure-free pre-pass sets the horizon at 4x the nominal run,
 * as in resilienceSweep, and cells that die (budget exhausted) are
 * reported in failedFraction/seedDiagnoses rather than thrown.
 * Each (protocol, interval, seed) cell is one task.
 */
ProtocolSweepResult
protocolSweep(const tracer::TraceBundle &bundle,
              const sim::PlatformConfig &base, double mtbf_us,
              const std::vector<double> &interval_grid_us,
              const std::vector<CheckpointProtocol> &protocols,
              std::uint32_t seed_count, std::uint64_t seed = 1,
              double machine_mtbf_us = 0.0, int threads = 1);

/**
 * Find the "intermediate" bandwidth: the point where the original
 * execution spends about as much time blocked on communication as it
 * spends computing (paper Sec. III: "where time spent in
 * communication is comparable to time spent in computation").
 * Bisection on a log scale over [lo, hi]. The TraceSet overload
 * compiles once on entry; pass a pre-compiled program to share the
 * lowering with other analyses of the same trace.
 */
double findIntermediateBandwidth(const trace::TraceSet &original,
                                 const sim::PlatformConfig &base,
                                 double lo_mbps = 0.25,
                                 double hi_mbps = 1 << 20,
                                 int iterations = 40);

double findIntermediateBandwidth(const sim::ReplayProgram &original,
                                 const sim::PlatformConfig &base,
                                 double lo_mbps = 0.25,
                                 double hi_mbps = 1 << 20,
                                 int iterations = 40);

/**
 * Smallest bandwidth at which replaying `traces` completes within
 * `target`. Bisection on a log scale; returns `hi_mbps` when even
 * the top of the range misses the target. The TraceSet overload
 * compiles once on entry.
 */
double minBandwidthForTime(const trace::TraceSet &traces,
                           const sim::PlatformConfig &base,
                           SimTime target, double lo_mbps,
                           double hi_mbps, int iterations = 48);

double minBandwidthForTime(const sim::ReplayProgram &program,
                           const sim::PlatformConfig &base,
                           SimTime target, double lo_mbps,
                           double hi_mbps, int iterations = 48);

/** Result of the bandwidth-relaxation (iso-performance) analysis. */
struct IsoPerformanceResult
{
    /** High reference bandwidth (MB/s). */
    double referenceBandwidth = 0.0;
    /** Original execution time at the reference bandwidth. */
    SimTime originalTime;
    /** Tolerated slowdown applied to the target (e.g. 0.05). */
    double tolerance = 0.0;
    /** Min bandwidth for the *original* to stay within target. */
    double originalRequiredBandwidth = 0.0;
    /** Min bandwidth for the *overlapped* to stay within target. */
    double overlappedRequiredBandwidth = 0.0;

    /** How much less bandwidth the overlapped execution needs. */
    double
    reductionFactor() const
    {
        return overlappedRequiredBandwidth > 0.0
                   ? originalRequiredBandwidth /
                       overlappedRequiredBandwidth
                   : 0.0;
    }
};

/**
 * The paper's network-relaxation experiment: measure the original's
 * performance at a high reference bandwidth, then find the minimal
 * bandwidth at which (a) the original and (b) the overlapped variant
 * still deliver that performance within `tolerance`. The two
 * bisections are independent searches and run as two tasks (one,
 * when the variant lowers to the original program), each between
 * `search_lo_mbps` and the reference; a reference at or below that
 * floor is a FatalError.
 */
IsoPerformanceResult
isoPerformance(const tracer::TraceBundle &bundle,
               const sim::PlatformConfig &base,
               const TransformConfig &variant,
               double reference_mbps, double tolerance = 0.05,
               double search_lo_mbps = 1e-3, int threads = 1);

} // namespace ovlsim::core

#endif // OVLSIM_CORE_ANALYSIS_HH
