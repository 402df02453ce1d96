#include "analysis.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <iterator>
#include <numeric>
#include <span>
#include <tuple>

#include "res/fault_model.hh"
#include "util/counter_rng.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/thread_pool.hh"

namespace ovlsim::core {

namespace {

using Program = std::shared_ptr<const sim::ReplayProgram>;

/**
 * The lane runner under every campaign driver (see analysis.hh): it
 * owns the lane count, the pool, one ReplaySession per lane, the
 * progress tick and, when the campaign records spans, one span list
 * per lane. Replay stages run costliest first (Graham's
 * longest-processing-time rule), so the largest replays start early
 * instead of running alone at the end.
 */
class LaneRunner
{
  public:
    using Cost = std::function<std::size_t(std::size_t)>;
    using Label = std::function<std::string(std::size_t)>;
    using Task = std::function<void(std::size_t, sim::ReplaySession &)>;

    LaneRunner(int threads, std::size_t widest,
               CampaignObs *cobs = nullptr)
        : sessions_(std::clamp<std::size_t>(
              widest, 1, ThreadPool::resolveThreads(threads))),
          pool_(static_cast<int>(sessions_.size())),
          cobs_(cobs),
          progress_(cobs != nullptr ? cobs->progress : nullptr)
    {
        if (cobs_ != nullptr && cobs_->recordSpans)
            laneSpans_.resize(sessions_.size());
    }

    /**
     * Run task(i, session) for every i in [0, count) on its lane's
     * session, costliest first (a null cost or a tie keeps index
     * order). When recording spans, each task with a label is timed
     * into its lane's list as a span named label(i), and the stage's
     * spans are appended to CampaignObs::spans ordered by (begin,
     * lane). With `points` non-empty, task i belongs to point
     * points[i], and the task retiring a point's last task ticks
     * progress.
     */
    void
    run(std::size_t count, const Cost &cost, const Label &label,
        const Task &task, std::span<const std::size_t> points = {})
    {
        std::vector<std::size_t> order(count);
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (cost)
            std::stable_sort(order.begin(), order.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return cost(a) > cost(b);
                             });
        std::vector<std::atomic<std::size_t>> left(
            points.empty() ? 0 : std::ranges::max(points) + 1);
        for (const std::size_t p : points)
            ++left[p];

        pool_.parallelFor(count, [&](std::size_t k, int lane) {
            const std::size_t i = order[k];
            const auto l = static_cast<std::size_t>(lane);
            if (label && !laneSpans_.empty()) {
                std::string name = label(i);
                const std::uint64_t begin = sinceEpochNs();
                task(i, sessions_[l]);
                laneSpans_[l].push_back(
                    {std::move(name), lane, begin, sinceEpochNs()});
            } else {
                task(i, sessions_[l]);
            }
            if (!points.empty() && progress_ != nullptr &&
                left[points[i]].fetch_sub(
                    1, std::memory_order_acq_rel) == 1)
                progress_->tick();
        });

        if (laneSpans_.empty())
            return;
        // parallelFor's join published every lane's list to this
        // thread.
        std::vector<obs::LaneSpan> &all = cobs_->spans;
        const auto first = static_cast<std::ptrdiff_t>(all.size());
        for (std::vector<obs::LaneSpan> &spans : laneSpans_) {
            std::move(spans.begin(), spans.end(),
                      std::back_inserter(all));
            spans.clear();
        }
        std::sort(all.begin() + first, all.end(),
                  [](const obs::LaneSpan &a, const obs::LaneSpan &b) {
                      return std::tie(a.beginNs, a.lane) <
                          std::tie(b.beginNs, b.lane);
                  });
    }

  private:
    std::uint64_t
    sinceEpochNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    // One per lane; a lane's session is used by one thread per
    // parallelFor, whose join publishes its state.
    std::vector<sim::ReplaySession> sessions_;
    ThreadPool pool_;
    CampaignObs *cobs_;
    obs::Progress *progress_;
    /** Per lane, the current stage's spans; empty unless the
     * campaign records spans. Each lane appends only to its own. */
    std::vector<std::vector<obs::LaneSpan>> laneSpans_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

/** Replay cost of the task replaying programs[slots[k]]: its
 * compiled op count. */
LaneRunner::Cost
opCount(const std::vector<Program> &programs,
        const std::vector<std::size_t> &slots)
{
    return [&programs, &slots](std::size_t k) {
        return programs[slots[k]]->totalOps();
    };
}

/** Program v's name: 0 is the original, v > 0 variant v - 1. */
std::string
programName(const std::vector<VariantSpec> &variants, std::size_t v)
{
    return v == 0 ? "original" : variants[v - 1].name;
}

/** Lower program v of `bundle` (numbered as in programName); a
 * variant's TraceSet dies at compile. */
Program
compileProgram(const tracer::TraceBundle &bundle,
               const std::vector<VariantSpec> &variants, std::size_t v)
{
    if (v == 0)
        return sim::compileShared(bundle.traces);
    return sim::compileShared(
        buildOverlappedTrace(bundle.traces, bundle.overlap,
                             variants[v - 1].config)
            .traces);
}

/** Give programs[t] the program of the first slot in [first, t)
 * that compares equal, dropping its own copy. */
void
shareEqual(std::vector<Program> &programs, std::size_t first,
           std::size_t t)
{
    for (std::size_t u = first; u < t; ++u) {
        if (*programs[u] == *programs[t]) {
            programs[t] = programs[u];
            return;
        }
    }
}

/**
 * Which slots of `programs`, `width` per point, replay. A slot's
 * source is the first slot of its point holding the same program
 * (itself unless shareEqual gave it an earlier one's); only sources
 * replay, and every other slot copies its source's outcome.
 */
struct Sources
{
    Sources(const std::vector<Program> &programs, std::size_t width)
        : of(programs.size())
    {
        for (std::size_t t = 0; t < programs.size(); ++t) {
            of[t] = t - t % width;
            while (programs[of[t]] != programs[t])
                ++of[t];
            if (of[t] == t)
                tasks.push_back(t);
        }
    }

    /** Each slot's source. */
    std::vector<std::size_t> of;
    /** The slots that are their own source, ascending. */
    std::vector<std::size_t> tasks;
};

/** The prepare stage of a traced bundle: compile the original and
 * every variant once, one task each, then share equal programs. */
std::vector<Program>
compileAll(LaneRunner &lanes, const tracer::TraceBundle &bundle,
           const std::vector<VariantSpec> &variants)
{
    std::vector<Program> programs(variants.size() + 1);
    lanes.run(
        programs.size(), nullptr,
        [&](std::size_t v) {
            return "compile " + programName(variants, v);
        },
        [&](std::size_t v, sim::ReplaySession &) {
            programs[v] = compileProgram(bundle, variants, v);
        });
    for (std::size_t v = 1; v < programs.size(); ++v)
        shareEqual(programs, 0, v);
    return programs;
}

/**
 * The replay stage of platformSweep and scalingSweep: programs[i *
 * width + v] is program v of point i, replaying on platforms[i].
 * One task per distinct program of a point; after the stage, every
 * other slot takes its source's time and stats, so each point folds
 * the stats of all its slots in slot order. A task drops its program
 * reference when done, so a program dies with its last replay.
 */
template <typename Point>
void
replayGrid(LaneRunner &lanes, std::vector<Program> programs,
           std::size_t width,
           const std::vector<sim::PlatformConfig> &platforms,
           const LaneRunner::Label &label, std::vector<Point> &points,
           obs::EngineStats &folded)
{
    const Sources sources(programs, width);
    const std::vector<std::size_t> &slots = sources.tasks;
    std::vector<std::size_t> pointOf(slots.size());
    for (std::size_t k = 0; k < slots.size(); ++k)
        pointOf[k] = slots[k] / width;
    for (std::size_t t = 0; t < programs.size(); ++t) {
        if (sources.of[t] != t)
            programs[t].reset();
    }

    std::vector<SimTime> times(programs.size());
    std::vector<obs::EngineStats> stats(programs.size());
    lanes.run(
        slots.size(), opCount(programs, slots),
        [&](std::size_t k) { return label(slots[k]); },
        [&](std::size_t k, sim::ReplaySession &session) {
            const std::size_t t = slots[k];
            const auto run =
                session.run(*programs[t], platforms[t / width]);
            programs[t].reset();
            if (t % width == 0)
                points[t / width].originalCommFraction =
                    run.commFraction();
            times[t] = run.totalTime;
            stats[t] = run.stats;
        },
        pointOf);

    for (Point &point : points)
        point.variantTimes.resize(width - 1);
    for (std::size_t t = 0; t < programs.size(); ++t) {
        Point &point = points[t / width];
        const std::size_t from = sources.of[t];
        if (t % width == 0)
            point.originalTime = times[from];
        else
            point.variantTimes[t % width - 1] = times[from];
        point.stats.merge(stats[from]);
    }
    for (const Point &point : points)
        folded.merge(point.stats);
}

/** Fold one cell's per-seed outcomes into its aggregates. */
void
aggregateCell(ResilienceCell &cell)
{
    std::vector<SimTime> alive;
    alive.reserve(cell.seedTimes.size());
    for (const SimTime t : cell.seedTimes) {
        if (t != SimTime::max())
            alive.push_back(t);
    }
    cell.failedFraction =
        static_cast<double>(cell.seedTimes.size() - alive.size()) /
        static_cast<double>(cell.seedTimes.size());
    if (alive.empty()) {
        cell.meanTime = SimTime::zero();
        cell.p95Time = SimTime::zero();
        return;
    }
    // Integer arithmetic end to end (ns sums fit: 2^63 ns is ~292
    // years of simulated time) so the aggregates are bit-identical
    // across hosts and thread counts.
    std::int64_t sum = 0;
    for (const SimTime t : alive)
        sum += t.ns();
    cell.meanTime = SimTime::fromNs(
        sum / static_cast<std::int64_t>(alive.size()));
    std::sort(alive.begin(), alive.end());
    // Nearest-rank percentile: ceil(0.95 n) as (19n + 19) / 20.
    const std::size_t n = alive.size();
    const std::size_t rank = (19 * n + 19) / 20;
    cell.p95Time = alive[rank - 1];
}

/** One fail-stop exponential process at `mtbf_us` per node. */
res::FaultModel
nodeFailStops(int nodes, double mtbf_us)
{
    res::FaultModel model;
    model.processes.reserve(static_cast<std::size_t>(nodes) + 1);
    for (int n = 0; n < nodes; ++n) {
        res::FaultProcess proc;
        proc.target = scen::ScenTarget::node;
        proc.nodeA = n;
        proc.effect = res::FaultEffect::failStop;
        proc.mtbfUs = mtbf_us;
        model.processes.push_back(std::move(proc));
    }
    return model;
}

} // namespace

std::vector<VariantSpec>
standardVariants(std::size_t chunks)
{
    std::vector<VariantSpec> variants;
    TransformConfig real;
    real.pattern = PatternModel::real;
    real.mechanism = Mechanism::both;
    real.chunks = chunks;
    variants.push_back(VariantSpec{"overlap-real", real});

    TransformConfig ideal = real;
    ideal.pattern = PatternModel::idealLinear;
    variants.push_back(VariantSpec{"overlap-ideal", ideal});
    return variants;
}

std::vector<double>
logBandwidthGrid(double lo_mbps, double hi_mbps,
                 int points_per_decade)
{
    ovlAssert(lo_mbps > 0.0, "logBandwidthGrid: low end not positive");
    if (!(hi_mbps > lo_mbps))
        fatal("log grid from ", lo_mbps, " to ", hi_mbps,
              ": the low end must be below the high end");
    ovlAssert(points_per_decade > 0,
              "logBandwidthGrid: need at least one point/decade");
    std::vector<double> grid;
    const double step =
        std::pow(10.0, 1.0 / points_per_decade);
    for (double b = lo_mbps; b < hi_mbps * (1.0 + 1e-9); b *= step)
        grid.push_back(b);
    if (grid.empty() || grid.back() < hi_mbps * (1.0 - 1e-9))
        grid.push_back(hi_mbps);
    return grid;
}

double
SweepPoint::speedup(std::size_t v) const
{
    ovlAssert(v < variantTimes.size(),
              "SweepPoint::speedup: bad variant index");
    const auto t = variantTimes[v].ns();
    if (t <= 0)
        return 0.0;
    return static_cast<double>(originalTime.ns()) /
        static_cast<double>(t);
}

SweepResult
platformSweep(const tracer::TraceBundle &bundle,
              const std::vector<sim::PlatformConfig> &platforms,
              const std::vector<VariantSpec> &variants, int threads,
              CampaignObs *cobs)
{
    SweepResult result;
    result.variants = variants;
    const std::size_t width = variants.size() + 1;
    LaneRunner lanes(threads, platforms.size() * width, cobs);
    const auto compiled = compileAll(lanes, bundle, variants);
    std::vector<Program> programs;
    result.points.resize(platforms.size());
    for (std::size_t i = 0; i < platforms.size(); ++i) {
        programs.insert(programs.end(), compiled.begin(),
                        compiled.end());
        result.points[i].bandwidthMBps = platforms[i].bandwidthMBps;
    }
    replayGrid(
        lanes, std::move(programs), width, platforms,
        [&](std::size_t t) {
            const sim::PlatformConfig &platform = platforms[t / width];
            return strformat("replay %s bw=%.4g ",
                             platform.name.c_str(),
                             platform.bandwidthMBps) +
                programName(variants, t % width);
        },
        result.points, result.stats);
    return result;
}

SweepResult
bandwidthSweep(const tracer::TraceBundle &bundle,
               const sim::PlatformConfig &base,
               const std::vector<double> &bandwidths,
               const std::vector<VariantSpec> &variants,
               int threads, CampaignObs *cobs)
{
    std::vector<sim::PlatformConfig> platforms(bandwidths.size(), base);
    for (std::size_t i = 0; i < bandwidths.size(); ++i)
        platforms[i].bandwidthMBps = bandwidths[i];
    return platformSweep(bundle, platforms, variants, threads, cobs);
}

double
ScalingPoint::speedup(std::size_t v) const
{
    ovlAssert(v < variantTimes.size(),
              "ScalingPoint::speedup: bad variant index");
    const auto t = variantTimes[v].ns();
    if (t <= 0)
        return 0.0;
    return static_cast<double>(originalTime.ns()) /
        static_cast<double>(t);
}

ScalingResult
scalingSweep(const gen::WorkloadConfig &workload,
             std::uint64_t seed, const sim::PlatformConfig &base,
             const std::vector<int> &rank_grid,
             const std::vector<VariantSpec> &variants, int threads,
             CampaignObs *cobs)
{
    ScalingResult result;
    result.variants = variants;
    const std::size_t width = variants.size() + 1;
    LaneRunner lanes(threads, rank_grid.size() * width, cobs);

    // Prepare: every point is its own trace, generated once and
    // lowered per program, a program equal to an earlier one of the
    // point dropped at once; generation cost grows with the rank
    // count, which therefore orders the stage.
    std::vector<Program> programs(rank_grid.size() * width);
    result.points.resize(rank_grid.size());
    lanes.run(
        rank_grid.size(),
        [&](std::size_t i) {
            return static_cast<std::size_t>(rank_grid[i]);
        },
        [&](std::size_t i) {
            return strformat("prepare ranks=%d", rank_grid[i]);
        },
        [&](std::size_t i, sim::ReplaySession &) {
            const auto bundle = gen::generateWorkload(
                gen::withRankCount(workload, rank_grid[i]), seed);
            ScalingPoint &point = result.points[i];
            point.ranks = rank_grid[i];
            point.sentBytes = bundle.traces.totalSentBytes();
            point.messages = bundle.traces.totalMessages();
            for (std::size_t v = 0; v < width; ++v) {
                programs[i * width + v] =
                    compileProgram(bundle, variants, v);
                shareEqual(programs, i * width, i * width + v);
            }
        });

    replayGrid(
        lanes, std::move(programs), width,
        std::vector<sim::PlatformConfig>(rank_grid.size(), base),
        [&](std::size_t t) {
            return strformat("replay ranks=%d ",
                             rank_grid[t / width]) +
                programName(variants, t % width);
        },
        result.points, result.stats);
    return result;
}

std::vector<TopologySpec>
standardTopologies()
{
    using namespace net::topologies;
    return {
        {"flat-bus", flatBus()},
        {"fat-tree", fatTree(4)},
        {"fat-tree-taper2", taperedFatTree(4, 0.5)},
        {"torus-2d", torus2d()},
        {"dragonfly", dragonfly()},
    };
}

ResilienceResult
resilienceSweep(const tracer::TraceBundle &bundle,
                const sim::PlatformConfig &base,
                const std::vector<double> &mtbf_grid_us,
                const std::vector<VariantSpec> &variants,
                std::uint32_t seed_count, std::uint64_t seed,
                int threads, CampaignObs *cobs)
{
    ovlAssert(seed_count > 0,
              "resilienceSweep: need at least one seed");
    for (const double mtbf : mtbf_grid_us) {
        ovlAssert(mtbf > 0.0,
                  "resilienceSweep: MTBF must be positive");
    }

    ResilienceResult result;
    result.variants = variants;
    result.seedCount = seed_count;

    const std::size_t jobs = mtbf_grid_us.size() * seed_count;
    LaneRunner lanes(threads, std::max(jobs, variants.size() + 1),
                     cobs);
    const auto programs = compileAll(lanes, bundle, variants);
    // Both passes replay each distinct program once.
    const Sources sources(programs, programs.size());
    const std::vector<std::size_t> &slots = sources.tasks;

    // Failure-free pre-pass: nominal completion under the base
    // platform (checkpoint overhead included, faults excluded) sets
    // the fault horizon. Processes stop faulting at 4x the slowest
    // nominal run, so heavily reworked replays finish on a
    // fault-free tail instead of restarting forever.
    sim::PlatformConfig nominal = base;
    nominal.scenario = scen::ScenarioConfig{};
    nominal.faultModelFile.clear();
    std::vector<SimTime> nominalTimes(programs.size());
    std::vector<obs::EngineStats> nominalStats(programs.size());
    lanes.run(
        slots.size(), opCount(programs, slots),
        [&](std::size_t k) {
            return "nominal " + programName(variants, slots[k]);
        },
        [&](std::size_t k, sim::ReplaySession &session) {
            const std::size_t v = slots[k];
            const auto run = session.run(*programs[v], nominal);
            nominalTimes[v] = run.totalTime;
            nominalStats[v] = run.stats;
        });
    for (std::size_t v = 0; v < programs.size(); ++v) {
        nominalTimes[v] = nominalTimes[sources.of[v]];
        nominalStats[v] = nominalStats[sources.of[v]];
    }
    result.horizon =
        *std::max_element(nominalTimes.begin(), nominalTimes.end()) * 4;

    const int nodes = (programs[0]->ranks() + base.cpusPerNode - 1) /
        base.cpusPerNode;

    result.points.resize(mtbf_grid_us.size());
    for (std::size_t i = 0; i < mtbf_grid_us.size(); ++i) {
        ResiliencePoint &point = result.points[i];
        point.mtbfUs = mtbf_grid_us[i];
        point.cells.resize(programs.size());
        for (ResilienceCell &cell : point.cells) {
            cell.seedTimes.assign(seed_count, SimTime::max());
            cell.seedDiagnoses.assign(seed_count,
                                      scen::FailureDiagnosis{});
        }
    }

    // One (rate, seed) job per row, run whole and in grid order: the
    // generated scenario is shared across the row's programs, so
    // cells compare under identical fault sequences. Jobs of one
    // grid point race on that point, so per-job stats land in a
    // private slot and fold sequentially below.
    std::vector<obs::EngineStats> jobStats(jobs);
    const auto replayRow = [&](std::size_t job,
                               sim::ReplaySession &session) {
        const std::size_t i = job / seed_count;
        const std::size_t s = job % seed_count;
        const res::FaultModel model =
            nodeFailStops(nodes, mtbf_grid_us[i]);
        const std::uint64_t row_seed =
            CounterRng(seed, static_cast<std::uint64_t>(i)).at(s);
        sim::PlatformConfig platform = nominal;
        platform.scenario =
            res::generateScenario(model, row_seed, result.horizon);

        ResiliencePoint &point = result.points[i];
        // A dead run's stats stay zero, which merge ignores.
        std::vector<obs::EngineStats> runStats(programs.size());
        for (const std::size_t v : slots) {
            try {
                const auto run =
                    session.run(*programs[v], platform);
                point.cells[v].seedTimes[s] = run.totalTime;
                runStats[v] = run.stats;
            } catch (const scen::FailureError &err) {
                // A dead run is campaign data, not an error: the
                // platform fails faster than this configuration
                // recovers. The slot keeps its max() sentinel and
                // the structured diagnosis (which event killed the
                // run, which ranks were left unfinished) rides
                // along for the campaign report.
                point.cells[v].seedDiagnoses[s] = err.diagnosis();
            }
        }
        for (std::size_t v = 0; v < programs.size(); ++v) {
            const ResilienceCell &from = point.cells[sources.of[v]];
            point.cells[v].seedTimes[s] = from.seedTimes[s];
            point.cells[v].seedDiagnoses[s] = from.seedDiagnoses[s];
            jobStats[job].merge(runStats[sources.of[v]]);
        }
    };
    std::vector<std::size_t> jobPoints(jobs);
    std::iota(jobPoints.begin(), jobPoints.end(), std::size_t{0});
    lanes.run(
        jobs, nullptr,
        [&](std::size_t job) {
            return strformat("job mtbf=%.4g seed=%zu",
                             mtbf_grid_us[job / seed_count],
                             job % seed_count);
        },
        replayRow, jobPoints);

    for (ResiliencePoint &point : result.points) {
        for (ResilienceCell &cell : point.cells)
            aggregateCell(cell);
    }
    for (const obs::EngineStats &stats : nominalStats)
        result.stats.merge(stats);
    for (const obs::EngineStats &stats : jobStats)
        result.stats.merge(stats);
    return result;
}

ProtocolSweepResult
protocolSweep(const tracer::TraceBundle &bundle,
              const sim::PlatformConfig &base, double mtbf_us,
              const std::vector<double> &interval_grid_us,
              const std::vector<CheckpointProtocol> &protocols,
              std::uint32_t seed_count, std::uint64_t seed,
              double machine_mtbf_us, int threads)
{
    ovlAssert(seed_count > 0,
              "protocolSweep: need at least one seed");
    ovlAssert(mtbf_us > 0.0,
              "protocolSweep: MTBF must be positive");
    ovlAssert(!protocols.empty(),
              "protocolSweep: need at least one protocol");
    ovlAssert(!interval_grid_us.empty(),
              "protocolSweep: need at least one interval");
    for (const double interval : interval_grid_us) {
        ovlAssert(interval > 0.0,
                  "protocolSweep: intervals must be positive");
    }

    ProtocolSweepResult result;
    result.mtbfUs = mtbf_us;
    result.machineMtbfUs = machine_mtbf_us;
    result.seedCount = seed_count;
    result.intervalGridUs = interval_grid_us;

    const std::size_t jobs =
        protocols.size() * interval_grid_us.size() * seed_count;
    LaneRunner lanes(threads, jobs);

    // Protocols compare checkpointing cost models over one fixed
    // workload, so only the original program replays — overlap
    // variants are resilienceSweep's axis, not this sweep's.
    const auto program = sim::compileShared(bundle.traces);

    // Failure-free, checkpoint-free pre-pass sets the fault horizon
    // at 4x the nominal run, as in resilienceSweep. Checkpointing is
    // stripped too because the interval is this sweep's axis; the
    // 4x headroom dwarfs any protocol's freeze overhead.
    sim::PlatformConfig nominal = base;
    nominal.scenario = scen::ScenarioConfig{};
    nominal.faultModelFile.clear();
    nominal.checkpointIntervalUs = 0.0;
    nominal.checkpointCostUs = 0.0;
    nominal.restartCostUs = 0.0;
    nominal.checkpointGlobalIntervalUs = 0.0;
    nominal.checkpointGlobalCostUs = 0.0;
    nominal.restartGlobalCostUs = 0.0;
    result.horizon = sim::simulate(*program, nominal).totalTime * 4;

    const int nodes = (program->ranks() + base.cpusPerNode - 1) /
        base.cpusPerNode;

    // Daly's M is the machine's mean time between *any* failure:
    // independent exponential processes superpose, so the system
    // rate is the per-node rate times the node count plus the
    // machine-wide rate.
    double failure_rate = static_cast<double>(nodes) / mtbf_us;
    if (machine_mtbf_us > 0.0)
        failure_rate += 1.0 / machine_mtbf_us;
    const double system_mtbf_us = 1.0 / failure_rate;

    result.rows.resize(protocols.size());
    for (std::size_t p = 0; p < protocols.size(); ++p) {
        ProtocolSweepRow &row = result.rows[p];
        row.protocol = protocols[p];
        row.dalyIntervalUs = res::dalyInterval(
            system_mtbf_us, protocols[p].checkpointCostUs);
        row.cells.resize(interval_grid_us.size());
        for (std::size_t k = 0; k < interval_grid_us.size(); ++k) {
            ProtocolCell &cell = row.cells[k];
            cell.intervalUs = interval_grid_us[k];
            cell.cell.seedTimes.assign(seed_count, SimTime::max());
            cell.cell.seedDiagnoses.assign(
                seed_count, scen::FailureDiagnosis{});
        }
    }

    // One job per (protocol, interval, seed) cell slot. The fault
    // scenario is a pure function of the seed index alone — every
    // protocol and interval of seed s replays the exact same fault
    // sequence, so the comparison isolates the cost model. Jobs
    // run in grid order.
    const std::size_t perProtocol =
        interval_grid_us.size() * seed_count;
    const auto replayCell = [&](std::size_t job,
                                sim::ReplaySession &session) {
        const std::size_t p = job / perProtocol;
        const std::size_t k = (job % perProtocol) / seed_count;
        const std::size_t s = job % seed_count;
        const CheckpointProtocol &proto = protocols[p];
        const double interval = interval_grid_us[k];

        res::FaultModel model = nodeFailStops(nodes, mtbf_us);
        if (machine_mtbf_us > 0.0) {
            // Machine-wide crashes restore from the global snapshot
            // under two-level protocols and from the local one
            // otherwise — the hierarchy's payoff shows up as data.
            res::FaultProcess proc;
            proc.target = scen::ScenTarget::all;
            proc.effect = res::FaultEffect::failStop;
            proc.mtbfUs = machine_mtbf_us;
            model.processes.push_back(std::move(proc));
        }
        const std::uint64_t row_seed = CounterRng(seed, 0).at(s);

        sim::PlatformConfig platform = nominal;
        platform.scenario =
            res::generateScenario(model, row_seed, result.horizon);
        platform.checkpointIntervalUs = interval;
        platform.checkpointCostUs = proto.checkpointCostUs;
        platform.restartCostUs = proto.restartCostUs;
        if (proto.globalIntervalFactor > 0.0) {
            platform.checkpointGlobalIntervalUs =
                proto.globalIntervalFactor * interval;
            platform.checkpointGlobalCostUs =
                proto.checkpointGlobalCostUs;
            platform.restartGlobalCostUs = proto.restartGlobalCostUs;
        }

        ResilienceCell &cell = result.rows[p].cells[k].cell;
        try {
            cell.seedTimes[s] =
                session.run(*program, platform).totalTime;
        } catch (const scen::FailureError &err) {
            cell.seedDiagnoses[s] = err.diagnosis();
        }
    };
    lanes.run(jobs, nullptr, nullptr, replayCell);

    for (ProtocolSweepRow &row : result.rows) {
        SimTime best = SimTime::max();
        for (ProtocolCell &cell : row.cells) {
            aggregateCell(cell.cell);
            // Argmin of the mean over surviving seeds; cells where
            // every seed died don't compete.
            if (cell.cell.failedFraction < 1.0 &&
                cell.cell.meanTime < best) {
                best = cell.cell.meanTime;
                row.bestIntervalUs = cell.intervalUs;
            }
        }
    }
    return result;
}

double
findIntermediateBandwidth(const trace::TraceSet &original,
                          const sim::PlatformConfig &base,
                          double lo_mbps, double hi_mbps,
                          int iterations)
{
    return findIntermediateBandwidth(sim::compileTrace(original),
                                     base, lo_mbps, hi_mbps,
                                     iterations);
}

double
findIntermediateBandwidth(const sim::ReplayProgram &original,
                          const sim::PlatformConfig &base,
                          double lo_mbps, double hi_mbps,
                          int iterations)
{
    ovlAssert(lo_mbps > 0.0 && hi_mbps > lo_mbps,
              "findIntermediateBandwidth: bad range");

    // Balance function: > 0 while communication dominates. The
    // comm-blocked share shrinks as bandwidth grows, so bisection on
    // the log axis converges onto comm time == compute time. One
    // session serves every iteration of the compiled-once program,
    // so the bisection replays with warmed-up arenas and no
    // per-iteration lowering.
    sim::ReplaySession session;
    const auto imbalance = [&](double mbps) {
        sim::PlatformConfig platform = base;
        platform.bandwidthMBps = mbps;
        const auto result = session.run(original, platform);
        return result.commFraction() - result.computeFraction();
    };

    double lo = std::log(lo_mbps);
    double hi = std::log(hi_mbps);
    if (imbalance(lo_mbps) <= 0.0)
        return lo_mbps;
    if (imbalance(hi_mbps) >= 0.0)
        return hi_mbps;
    for (int i = 0; i < iterations; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (imbalance(std::exp(mid)) > 0.0)
            lo = mid;
        else
            hi = mid;
    }
    return std::exp(0.5 * (lo + hi));
}

double
minBandwidthForTime(const trace::TraceSet &traces,
                    const sim::PlatformConfig &base,
                    SimTime target, double lo_mbps, double hi_mbps,
                    int iterations)
{
    return minBandwidthForTime(sim::compileTrace(traces), base,
                               target, lo_mbps, hi_mbps,
                               iterations);
}

double
minBandwidthForTime(const sim::ReplayProgram &program,
                    const sim::PlatformConfig &base,
                    SimTime target, double lo_mbps, double hi_mbps,
                    int iterations)
{
    ovlAssert(lo_mbps > 0.0 && hi_mbps > lo_mbps,
              "minBandwidthForTime: bad range");

    sim::ReplaySession session;
    const auto meets = [&](double mbps) {
        sim::PlatformConfig platform = base;
        platform.bandwidthMBps = mbps;
        return session.run(program, platform).totalTime <= target;
    };

    if (meets(lo_mbps))
        return lo_mbps;
    if (!meets(hi_mbps))
        return hi_mbps;

    double lo = std::log(lo_mbps);
    double hi = std::log(hi_mbps);
    for (int i = 0; i < iterations; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (meets(std::exp(mid)))
            hi = mid;
        else
            lo = mid;
    }
    return std::exp(hi);
}

IsoPerformanceResult
isoPerformance(const tracer::TraceBundle &bundle,
               const sim::PlatformConfig &base,
               const TransformConfig &variant,
               double reference_mbps, double tolerance,
               double search_lo_mbps, int threads)
{
    ovlAssert(search_lo_mbps > 0.0, "isoPerformance: bad search floor");
    if (!(reference_mbps > search_lo_mbps))
        fatal("reference bandwidth ", reference_mbps,
              " MB/s must be above the search floor ", search_lo_mbps,
              " MB/s");
    ovlAssert(tolerance >= 0.0, "isoPerformance: bad tolerance");

    IsoPerformanceResult result;
    result.referenceBandwidth = reference_mbps;
    result.tolerance = tolerance;

    // Prepare the original and the overlapped program; the
    // original serves the reference replay and its own bisection.
    LaneRunner lanes(threads, 2);
    const auto programs =
        compileAll(lanes, bundle, {{"overlapped", variant}});
    sim::PlatformConfig reference = base;
    reference.bandwidthMBps = reference_mbps;
    result.originalTime =
        sim::simulate(*programs[0], reference).totalTime;

    const auto target = SimTime::fromNs(static_cast<std::int64_t>(
        static_cast<double>(result.originalTime.ns()) *
        (1.0 + tolerance)));

    // The two bisections are independent searches against the same
    // target, each writing its own slot, so running them
    // concurrently cannot change the outcome. An overlapped program
    // equal to the original shares its bisection.
    const Sources sources(programs, programs.size());
    const std::vector<std::size_t> &slots = sources.tasks;
    double required[2] = {};
    lanes.run(slots.size(), opCount(programs, slots), nullptr,
              [&](std::size_t k, sim::ReplaySession &) {
                  const std::size_t v = slots[k];
                  required[v] = minBandwidthForTime(
                      *programs[v], base, target, search_lo_mbps,
                      reference_mbps);
              });
    result.originalRequiredBandwidth = required[0];
    result.overlappedRequiredBandwidth = required[sources.of[1]];
    return result;
}

} // namespace ovlsim::core
