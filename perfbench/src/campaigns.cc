#include "campaigns.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench/bench_common.hh"
#include "bench_stats.hh"
#include "core/analysis.hh"
#include "core/transform.hh"
#include "gen/gen.hh"
#include "net/topology.hh"
#include "res/fault_model.hh"
#include "sim/engine.hh"
#include "sim/program.hh"
#include "util/counter_rng.hh"
#include "util/strings.hh"
#include "util/thread_pool.hh"

namespace perfbench {

using namespace ovlsim;

std::string
PointRecord::digest() const
{
    return hex64(fnv1a(outputs));
}

std::string
simDigest(const Records &records)
{
    std::uint64_t hash = fnv1a("");
    for (const PointRecord &record : records)
        hash = fnv1a(record.label + " " + record.digest() + "\n", hash);
    return hex64(hash);
}

Spec
smallSpec()
{
    Spec spec;
    spec.apps = {"nas-cg", "sweep3d"};
    spec.iterations = 1;
    spec.bwLoMBps = 4.0;
    spec.bwHiMBps = 4096.0;
    spec.bwPerDecade = 1;
    spec.chunks = 4;
    spec.mlRanks = {16, 32};
    spec.stencilRanks = {8, 16};
    spec.mtbfLo = 2.0;
    spec.mtbfHi = 20.0;
    spec.mtbfPerDecade = 1;
    spec.faultSeeds = 2;
    return spec;
}

namespace {

/** Trace one paper app (its default parameters, `iterations` outer
 * iterations). */
tracer::TraceBundle
traceInput(Tracer *tracer, const std::string &app, int iterations)
{
    Scope span(tracer, 0, Layer::tracer, -1);
    auto bundle = bench::traceApp(app, iterations);
    span.work = bundle.traces.totalRecords();
    return bundle;
}

bool
onNetwork(const sim::PlatformConfig &platform)
{
    return platform.topology.kind != net::TopologyKind::flatBus;
}

/** One replay under a span carrying its outcome and counters. */
sim::SimResult
replay(Tracer *tracer, int lane, int point,
       sim::ReplaySession &session, const sim::ReplayProgram &program,
       const sim::PlatformConfig &platform)
{
    Scope span(tracer, lane, Layer::replay, point);
    span.network = onNetwork(platform);
    auto run = session.run(program, platform);
    span.work = run.eventsProcessed;
    span.stats = run.stats;
    span.checkpoints = run.checkpoints;
    span.restarts = run.restarts;
    return run;
}

/** Lower `traces` under a compile span. */
std::shared_ptr<const sim::ReplayProgram>
compile(Tracer *tracer, int lane, int point,
        const trace::TraceSet &traces)
{
    Scope span(tracer, lane, Layer::compile, point);
    auto program = sim::compileShared(traces);
    span.work = program->totalOps();
    return program;
}

/** The overlap transform under a transform span. */
core::TransformResult
transform(Tracer *tracer, int lane, int point,
          const tracer::TraceBundle &bundle,
          const core::TransformConfig &config)
{
    Scope span(tracer, lane, Layer::transform, point);
    auto built =
        core::buildOverlappedTrace(bundle.traces, bundle.overlap, config);
    span.work = built.traces.totalRecords();
    return built;
}

/**
 * The compile phase bandwidthSweep and resilienceSweep open with:
 * slot 0 lowers the original, slot v builds variant v-1 and lowers
 * it, fanned over the pool.
 */
std::vector<std::shared_ptr<const sim::ReplayProgram>>
tracedPrograms(ThreadPool &pool, Tracer &tracer, int point,
               const tracer::TraceBundle &bundle,
               const std::vector<core::VariantSpec> &variants)
{
    std::vector<std::shared_ptr<const sim::ReplayProgram>> programs(
        variants.size() + 1);
    pool.parallelFor(programs.size(), [&](std::size_t v, int lane) {
        Scope task(&tracer, lane, Layer::point, point);
        if (v == 0) {
            programs[0] = compile(&tracer, lane, point, bundle.traces);
            return;
        }
        const auto built = transform(&tracer, lane, point, bundle,
                                     variants[v - 1].config);
        programs[v] = compile(&tracer, lane, point, built.traces);
    });
    return programs;
}

/** Pool width the drivers use: `lanes`, capped at the widest phase. */
int
clampLanes(int lanes, std::size_t widest)
{
    if (widest > 0 && static_cast<std::size_t>(lanes) > widest)
        return static_cast<int>(widest);
    return lanes;
}

std::string
timesText(SimTime original, double comm,
          const std::vector<SimTime> &variants)
{
    std::string text = strformat(
        "orig=%lld comm=%a var=", static_cast<long long>(original.ns()),
        comm);
    for (const SimTime t : variants)
        text += strformat("%lld,", static_cast<long long>(t.ns()));
    return text;
}

// ------------------------------------------------------------ paper-r1

class PaperR1 final : public Workload
{
  public:
    explicit PaperR1(const Spec &spec)
        : spec_(spec), platform_(sim::platforms::defaultCluster()),
          grid_(core::logBandwidthGrid(spec.bwLoMBps, spec.bwHiMBps,
                                       spec.bwPerDecade)),
          variants_(core::standardVariants(spec.chunks))
    {}

    std::string name() const override { return "paper-r1"; }
    bool seedSensitive() const override { return false; }

    std::size_t
    points() const override
    {
        return spec_.apps.size() * grid_.size();
    }

    void
    setup(Tracer *tracer) override
    {
        bundles_.clear();
        for (const auto &app : spec_.apps)
            bundles_.push_back(
                traceInput(tracer, app, spec_.iterations));
    }

    Records
    campaign(int lanes) override
    {
        Records out;
        for (std::size_t a = 0; a < bundles_.size(); ++a)
            append(out, spec_.apps[a],
                   core::bandwidthSweep(bundles_[a], platform_, grid_,
                                        variants_, lanes));
        return out;
    }

    Records
    tracedCampaign(int lanes, Tracer &tracer) override
    {
        Records out;
        for (std::size_t a = 0; a < bundles_.size(); ++a) {
            const auto &app = spec_.apps[a];
            ThreadPool pool(clampLanes(
                lanes, std::max(grid_.size(), variants_.size())));
            const int prepare = tracer.addPoint();
            const auto programs = tracedPrograms(
                pool, tracer, prepare, bundles_[a], variants_);

            std::vector<int> ids(grid_.size());
            for (int &id : ids)
                id = tracer.addPoint();
            std::vector<sim::ReplaySession> sessions(
                static_cast<std::size_t>(pool.size()));
            core::SweepResult sweep;
            sweep.points.resize(grid_.size());
            pool.parallelFor(grid_.size(), [&](std::size_t i, int lane) {
                Scope task(&tracer, lane, Layer::point, ids[i]);
                auto &session = sessions[static_cast<std::size_t>(lane)];
                sim::PlatformConfig platform = platform_;
                platform.bandwidthMBps = grid_[i];
                core::SweepPoint &point = sweep.points[i];
                point.bandwidthMBps = grid_[i];
                const auto original = replay(&tracer, lane, ids[i],
                                             session, *programs[0],
                                             platform);
                point.originalTime = original.totalTime;
                point.originalCommFraction = original.commFraction();
                for (std::size_t v = 1; v < programs.size(); ++v)
                    point.variantTimes.push_back(
                        replay(&tracer, lane, ids[i], session,
                               *programs[v], platform)
                            .totalTime);
            });
            append(out, app, sweep);
        }
        return out;
    }

    /**
     * bus.queue_ratio: ns/event of the sweep3d variants replayed at
     * 16 MB/s behind the default one in/out link per node, over the
     * same replays with unlimited links. Admission has no public
     * entry, so this differential is its probe.
     */
    void
    probes(const Tracer &, Metrics &metrics) override
    {
        const auto it = std::find(spec_.apps.begin(), spec_.apps.end(),
                                  "sweep3d");
        if (it == spec_.apps.end())
            return;
        const auto &bundle =
            bundles_[static_cast<std::size_t>(it - spec_.apps.begin())];
        std::vector<std::shared_ptr<const sim::ReplayProgram>> programs;
        for (const auto &variant : variants_)
            programs.push_back(sim::compileShared(
                core::buildOverlappedTrace(bundle.traces, bundle.overlap,
                                           variant.config)
                    .traces));
        sim::PlatformConfig queued = platform_;
        queued.bandwidthMBps = 16.0;
        sim::PlatformConfig unlimited = queued;
        unlimited.outLinksPerNode = 0;
        unlimited.inLinksPerNode = 0;

        sim::ReplaySession session;
        auto nsPerEvent = [&](const sim::PlatformConfig &platform) {
            const auto start = std::chrono::steady_clock::now();
            std::uint64_t events = 0;
            for (const auto &program : programs)
                events += session.run(*program, platform).eventsProcessed;
            const std::chrono::duration<double, std::nano> ns =
                std::chrono::steady_clock::now() - start;
            return ns.count() / static_cast<double>(events);
        };
        std::vector<double> queuedNs;
        std::vector<double> unlimitedNs;
        for (int rep = 0; rep < 3; ++rep) {
            queuedNs.push_back(nsPerEvent(queued));
            unlimitedNs.push_back(nsPerEvent(unlimited));
        }
        setMetric(metrics, "bus.queue_ratio",
                  median(queuedNs) / median(unlimitedNs));
    }

  private:
    static std::string
    label(const std::string &app, double bw)
    {
        return strformat("%s/bw=%.6g", app.c_str(), bw);
    }

    static void
    append(Records &out, const std::string &app,
           const core::SweepResult &sweep)
    {
        for (const auto &point : sweep.points)
            out.push_back({label(app, point.bandwidthMBps),
                           strformat("bw=%a ", point.bandwidthMBps) +
                               timesText(point.originalTime,
                                         point.originalCommFraction,
                                         point.variantTimes)});
    }

    Spec spec_;
    sim::PlatformConfig platform_;
    std::vector<double> grid_;
    std::vector<core::VariantSpec> variants_;
    std::vector<tracer::TraceBundle> bundles_;
};

// ----------------------------------------------------------- gen-scale

class GenScale final : public Workload
{
  public:
    GenScale(const Spec &spec, std::uint64_t seed)
        : spec_(spec), seed_(seed),
          platform_(sim::platforms::topologyCluster(
              net::topologies::taperedFatTree(4, 0.5))),
          variants_(core::standardVariants(spec.chunks))
    {
        platform_.bandwidthMBps = 4096.0;
        platform_.collectiveModel = coll::CollectiveModel::algorithmic;
        platform_.collectiveAlgorithms.set(
            trace::CollOp::allReduce, coll::Algorithm::recursiveDoubling);

        // The M9 ml-training loop and a stencil with family defaults.
        gen::WorkloadConfig ml;
        ml.kind = gen::WorkloadKind::mlTraining;
        ml.name = "gen-ml";
        ml.iterations = 2;
        ml.gradientBuckets = 4;
        ml.gradientBytes = Bytes(64) * 1024 * 1024;
        ml.stepInstr = 50'000'000;
        gen::WorkloadConfig stencil;
        stencil.kind = gen::WorkloadKind::stencil;
        stencil.name = "gen-stencil";
        families_ = {{"ml", ml, spec.mlRanks},
                     {"stencil", stencil, spec.stencilRanks}};
    }

    std::string name() const override { return "gen-scale"; }
    // With the families' default zero compute jitter the generators
    // draw no random numbers, so the seed does not reach the traces.
    bool seedSensitive() const override { return false; }

    std::size_t
    points() const override
    {
        return spec_.mlRanks.size() + spec_.stencilRanks.size();
    }

    /** The inputs are the generated traces: generate every grid point
     * once (the drivers regenerate per point, as a scaling campaign
     * must). */
    void
    setup(Tracer *tracer) override
    {
        for (const auto &family : families_) {
            for (const int ranks : family.ranks) {
                Scope span(tracer, 0, Layer::gen, -1);
                const auto bundle = gen::generateWorkload(
                    gen::withRankCount(family.config, ranks), seed_);
                span.work = bundle.traces.totalRecords();
            }
        }
    }

    Records
    campaign(int lanes) override
    {
        Records out;
        for (const auto &family : families_)
            append(out, family.name,
                   core::scalingSweep(family.config, seed_, platform_,
                                      family.ranks, variants_, lanes));
        return out;
    }

    Records
    tracedCampaign(int lanes, Tracer &tracer) override
    {
        Records out;
        mlPoints_.clear();
        for (const auto &family : families_) {
            const auto &grid = family.ranks;
            ThreadPool pool(clampLanes(lanes, grid.size()));
            std::vector<int> ids(grid.size());
            for (int &id : ids)
                id = tracer.addPoint();
            if (family.name == "ml")
                mlPoints_ = ids;
            std::vector<sim::ReplaySession> sessions(
                static_cast<std::size_t>(pool.size()));
            core::ScalingResult sweep;
            sweep.points.resize(grid.size());
            pool.parallelFor(grid.size(), [&](std::size_t i, int lane) {
                const int id = ids[i];
                Scope task(&tracer, lane, Layer::point, id);
                auto &session = sessions[static_cast<std::size_t>(lane)];
                tracer::TraceBundle bundle;
                {
                    Scope span(&tracer, lane, Layer::gen, id);
                    bundle = gen::generateWorkload(
                        gen::withRankCount(family.config, grid[i]),
                        seed_);
                    span.work = bundle.traces.totalRecords();
                }
                core::ScalingPoint &point = sweep.points[i];
                point.ranks = grid[i];
                point.sentBytes = bundle.traces.totalSentBytes();
                point.messages = bundle.traces.totalMessages();
                const auto original =
                    replay(&tracer, lane, id, session,
                           *compile(&tracer, lane, id, bundle.traces),
                           platform_);
                point.originalTime = original.totalTime;
                point.originalCommFraction = original.commFraction();
                for (const auto &variant : variants_) {
                    const auto built = transform(&tracer, lane, id,
                                                 bundle, variant.config);
                    point.variantTimes.push_back(
                        replay(&tracer, lane, id, session,
                               *compile(&tracer, lane, id, built.traces),
                               platform_)
                            .totalTime);
                }
            });
            append(out, family.name, sweep);
        }
        return out;
    }

    /** net.ns_per_event at the smallest (r64) and largest (r1024)
     * ml-training points, and their ratio. */
    void
    probes(const Tracer &campaign, Metrics &metrics) override
    {
        if (mlPoints_.empty())
            return;
        const double small = replayNsPerEvent(campaign, {mlPoints_.front()});
        const double large = replayNsPerEvent(campaign, {mlPoints_.back()});
        setMetric(metrics, "net.ns_per_event.r64", small);
        setMetric(metrics, "net.ns_per_event.r1024", large);
        setMetric(metrics, "net.scale_ratio",
                  small > 0.0 ? large / small : 0.0);
    }

  private:
    struct Family
    {
        std::string name;
        gen::WorkloadConfig config;
        std::vector<int> ranks;
    };

    static std::string
    label(const std::string &family, int ranks)
    {
        return strformat("%s/ranks=%d", family.c_str(), ranks);
    }

    static void
    append(Records &out, const std::string &family,
           const core::ScalingResult &sweep)
    {
        for (const auto &point : sweep.points)
            out.push_back(
                {label(family, point.ranks),
                 strformat("ranks=%d bytes=%lld msgs=%zu ", point.ranks,
                           static_cast<long long>(point.sentBytes),
                           point.messages) +
                     timesText(point.originalTime,
                               point.originalCommFraction,
                               point.variantTimes)});
    }

    Spec spec_;
    std::uint64_t seed_;
    sim::PlatformConfig platform_;
    std::vector<core::VariantSpec> variants_;
    std::vector<Family> families_;
    std::vector<int> mlPoints_;
};

// --------------------------------------------------------- faults-ckpt

/** resilienceSweep's per-cell fold: integer mean and nearest-rank
 * p95 over surviving seeds, and the failed fraction. */
void
aggregateCell(core::ResilienceCell &cell)
{
    std::vector<SimTime> alive;
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
    std::int64_t sum = 0;
    for (const SimTime t : alive)
        sum += t.ns();
    cell.meanTime =
        SimTime::fromNs(sum / static_cast<std::int64_t>(alive.size()));
    std::sort(alive.begin(), alive.end());
    cell.p95Time = alive[(19 * alive.size() + 19) / 20 - 1];
}

class FaultsCkpt final : public Workload
{
  public:
    FaultsCkpt(const Spec &spec, std::uint64_t seed)
        : spec_(spec), seed_(seed),
          variants_(core::standardVariants(spec.chunks))
    {}

    std::string name() const override { return "faults-ckpt"; }
    bool seedSensitive() const override { return true; }

    std::size_t
    points() const override
    {
        return grid_.size() * spec_.faultSeeds;
    }

    /** Trace the app and run the nominal pre-pass that scales the
     * checkpoint cost model and the MTBF grid (the resilience_study
     * defaults). */
    void
    setup(Tracer *tracer) override
    {
        bundle_ = traceInput(tracer, spec_.faultApp, spec_.iterations);
        const auto platform = sim::platforms::defaultCluster();
        sim::ReplaySession session;
        const auto program = compile(tracer, 0, -1, bundle_.traces);
        const double nominalUs =
            replay(tracer, 0, -1, session, *program, platform)
                .totalTime.toUs();

        base_ = platform;
        base_.checkpointIntervalUs = nominalUs / 6.0;
        base_.checkpointCostUs = base_.checkpointIntervalUs / 50.0;
        base_.restartCostUs = base_.checkpointIntervalUs / 10.0;
        // Descending, from a merely flaky machine to a brutal one.
        grid_ = core::logBandwidthGrid(spec_.mtbfLo * nominalUs,
                                       spec_.mtbfHi * nominalUs,
                                       spec_.mtbfPerDecade);
        std::reverse(grid_.begin(), grid_.end());
    }

    Records
    campaign(int lanes) override
    {
        return records(core::resilienceSweep(bundle_, base_, grid_,
                                             variants_, spec_.faultSeeds,
                                             seed_, lanes));
    }

    Records
    tracedCampaign(int lanes, Tracer &tracer) override
    {
        const std::uint32_t seeds = spec_.faultSeeds;
        const std::size_t jobs = grid_.size() * seeds;
        ThreadPool pool(clampLanes(lanes, jobs));
        const int prepare = tracer.addPoint();
        const auto programs =
            tracedPrograms(pool, tracer, prepare, bundle_, variants_);

        core::ResilienceResult result;
        sim::PlatformConfig nominal = base_;
        nominal.scenario = scen::ScenarioConfig{};
        nominal.faultModelFile.clear();
        std::vector<sim::ReplaySession> sessions(
            static_cast<std::size_t>(pool.size()));
        std::vector<SimTime> nominalTimes(programs.size());
        pool.parallelFor(programs.size(), [&](std::size_t v, int lane) {
            Scope task(&tracer, lane, Layer::point, prepare);
            nominalTimes[v] =
                replay(&tracer, lane, prepare,
                       sessions[static_cast<std::size_t>(lane)],
                       *programs[v], nominal)
                    .totalTime;
        });
        result.horizon =
            *std::max_element(nominalTimes.begin(), nominalTimes.end()) *
            4;

        const int nodes = (programs[0]->ranks() + base_.cpusPerNode - 1) /
            base_.cpusPerNode;
        result.points.resize(grid_.size());
        rowPoints_.assign(grid_.size(), {});
        std::vector<int> ids(jobs);
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            result.points[i].mtbfUs = grid_[i];
            result.points[i].cells.resize(programs.size());
            for (auto &cell : result.points[i].cells) {
                cell.seedTimes.assign(seeds, SimTime::max());
                cell.seedDiagnoses.assign(seeds, scen::FailureDiagnosis{});
            }
            for (std::uint32_t s = 0; s < seeds; ++s) {
                ids[i * seeds + s] = tracer.addPoint();
                rowPoints_[i].push_back(ids[i * seeds + s]);
            }
        }

        pool.parallelFor(jobs, [&](std::size_t job, int lane) {
            const std::size_t i = job / seeds;
            const std::size_t s = job % seeds;
            const int id = ids[job];
            Scope task(&tracer, lane, Layer::point, id);
            res::FaultModel model;
            for (int n = 0; n < nodes; ++n) {
                res::FaultProcess proc;
                proc.target = scen::ScenTarget::node;
                proc.nodeA = n;
                proc.effect = res::FaultEffect::failStop;
                proc.mtbfUs = grid_[i];
                model.processes.push_back(std::move(proc));
            }
            sim::PlatformConfig platform = nominal;
            {
                Scope span(&tracer, lane, Layer::faultgen, id);
                platform.scenario = res::generateScenario(
                    model, CounterRng(seed_, i).at(s), result.horizon);
                span.work = platform.scenario.events.size();
            }
            auto &session = sessions[static_cast<std::size_t>(lane)];
            auto &cells = result.points[i].cells;
            for (std::size_t v = 0; v < programs.size(); ++v) {
                try {
                    cells[v].seedTimes[s] =
                        replay(&tracer, lane, id, session, *programs[v],
                               platform)
                            .totalTime;
                } catch (const scen::FailureError &err) {
                    cells[v].seedDiagnoses[s] = err.diagnosis();
                }
            }
        });
        for (auto &point : result.points) {
            for (auto &cell : point.cells)
                aggregateCell(cell);
        }
        return records(result);
    }

    /** res.fault_scale_ratio: replay ns/event in the most brutal MTBF
     * row over the mildest. */
    void
    probes(const Tracer &campaign, Metrics &metrics) override
    {
        if (rowPoints_.size() < 2)
            return;
        const double mild = replayNsPerEvent(campaign, rowPoints_.front());
        const double brutal = replayNsPerEvent(campaign, rowPoints_.back());
        setMetric(metrics, "res.fault_scale_ratio",
                  mild > 0.0 ? brutal / mild : 0.0);
    }

  private:
    static std::string
    label(double mtbf, std::size_t seed)
    {
        return strformat("mtbf=%.6g/seed=%zu", mtbf, seed);
    }

    static std::string
    diagnosisText(const scen::FailureDiagnosis &diag)
    {
        if (diag.event.empty())
            return "-";
        std::string text = diag.event +
            strformat("@%lld[", static_cast<long long>(diag.time.ns()));
        for (const auto &rank : diag.blockedRanks)
            text += strformat("%d:%s:%zu:%zu;", rank.rank,
                              rank.state.c_str(), rank.pc, rank.end);
        return text + "]";
    }

    /** One record per (rate, seed) job: the job's time or diagnosis
     * per cell, plus its row's aggregates and the horizon. */
    Records
    records(const core::ResilienceResult &result) const
    {
        Records out;
        for (const auto &point : result.points) {
            for (std::size_t s = 0; s < spec_.faultSeeds; ++s) {
                std::string text = strformat(
                    "mtbf=%a horizon=%lld", point.mtbfUs,
                    static_cast<long long>(result.horizon.ns()));
                for (const auto &cell : point.cells)
                    text += strformat(
                        " t=%lld diag=%s mean=%lld p95=%lld failed=%a",
                        static_cast<long long>(cell.seedTimes[s].ns()),
                        diagnosisText(cell.seedDiagnoses[s]).c_str(),
                        static_cast<long long>(cell.meanTime.ns()),
                        static_cast<long long>(cell.p95Time.ns()),
                        cell.failedFraction);
                out.push_back({label(point.mtbfUs, s), text});
            }
        }
        return out;
    }

    Spec spec_;
    std::uint64_t seed_;
    std::vector<core::VariantSpec> variants_;
    tracer::TraceBundle bundle_;
    sim::PlatformConfig base_;
    std::vector<double> grid_;
    std::vector<std::vector<int>> rowPoints_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const Spec &spec)
{
    if (name == "paper-r1")
        return std::make_unique<PaperR1>(spec);
    if (name == "gen-scale")
        return std::make_unique<GenScale>(spec, seed);
    if (name == "faults-ckpt")
        return std::make_unique<FaultsCkpt>(spec, seed);
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"paper-r1", "gen-scale",
                                                "faults-ckpt"};
    return names;
}

double
paperErrorPp()
{
    double sum = 0.0;
    for (const auto &app : bench::paperApps()) {
        const auto bundle = bench::traceApp(app);
        const auto original = sim::compileShared(bundle.traces);
        auto platform = sim::platforms::defaultCluster();
        platform.bandwidthMBps =
            core::findIntermediateBandwidth(*original, platform);
        core::TransformConfig ideal;
        ideal.pattern = core::PatternModel::idealLinear;
        const auto overlapped = sim::compileShared(
            core::buildOverlappedTrace(bundle.traces, bundle.overlap,
                                       ideal)
                .traces);
        const double pct =
            bench::speedupPct(sim::simulate(*original, platform).totalTime,
                              sim::simulate(*overlapped, platform).totalTime);
        sum += std::fabs(pct - bench::paperIntermediateSpeedupPct(app));
    }
    return sum / static_cast<double>(bench::paperApps().size());
}

} // namespace perfbench
