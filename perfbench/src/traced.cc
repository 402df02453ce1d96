#include "traced.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "bench_stats.hh"

namespace perfbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::lane: return "lane";
    case Layer::point: return "point";
    case Layer::tracer: return "tracer";
    case Layer::gen: return "gen";
    case Layer::transform: return "transform";
    case Layer::compile: return "compile";
    case Layer::replay: return "replay";
    case Layer::faultgen: return "faultgen";
    }
    return "?";
}

Tracer::Tracer(int lanes)
    : epoch_(std::chrono::steady_clock::now()),
      spans_(static_cast<std::size_t>(lanes)),
      open_(static_cast<std::size_t>(lanes))
{
    startNs_ = now();
}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::size_t
Tracer::open(int lane, Layer layer, int point)
{
    auto &spans = spans_[static_cast<std::size_t>(lane)];
    auto &stack = open_[static_cast<std::size_t>(lane)];
    Span span;
    span.layer = layer;
    span.point = point;
    span.lane = lane;
    span.parent = stack.empty() ? -1 : static_cast<int>(stack.back());
    span.beginNs = now();
    spans.push_back(span);
    stack.push_back(spans.size() - 1);
    return spans.size() - 1;
}

Span &
Tracer::close(int lane, std::size_t handle)
{
    Span &span = spans_[static_cast<std::size_t>(lane)][handle];
    span.endNs = now();
    open_[static_cast<std::size_t>(lane)].pop_back();
    return span;
}

void
Tracer::finish()
{
    endNs_ = now();
    merged_.clear();
    // Lane roots first, then each lane's spans with their lane-local
    // parent indices rebased; top-level spans hang off their root.
    const int lanes = this->lanes();
    for (int lane = 0; lane < lanes; ++lane) {
        Span root;
        root.layer = Layer::lane;
        root.lane = lane;
        root.beginNs = startNs_;
        root.endNs = endNs_;
        merged_.push_back(root);
    }
    for (int lane = 0; lane < lanes; ++lane) {
        const int base = static_cast<int>(merged_.size());
        for (Span span : spans_[static_cast<std::size_t>(lane)]) {
            span.parent = span.parent < 0 ? lane : span.parent + base;
            merged_.push_back(span);
        }
    }
}

void
setMetric(Metrics &metrics, const std::string &name, double value)
{
    for (auto &[key, v] : metrics) {
        if (key == name) {
            v = value;
            return;
        }
    }
    metrics.emplace_back(name, value);
}

namespace {

std::vector<std::int64_t>
selfOf(const Tracer &tracer)
{
    std::vector<Interval> intervals;
    intervals.reserve(tracer.merged().size());
    for (const Span &span : tracer.merged())
        intervals.push_back({span.beginNs, span.endNs, span.parent});
    return selfTimes(intervals);
}

bool
accepts(const std::vector<int> &points, int point)
{
    return points.empty() ||
        std::find(points.begin(), points.end(), point) != points.end();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace

std::int64_t
layerSelfNs(const Tracer &tracer, Layer layer,
            const std::vector<int> &points)
{
    const auto self = selfOf(tracer);
    std::int64_t sum = 0;
    const auto &spans = tracer.merged();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].layer == layer && accepts(points, spans[i].point))
            sum += self[i];
    }
    return sum;
}

double
replayNsPerEvent(const Tracer &tracer, const std::vector<int> &points)
{
    std::uint64_t events = 0;
    for (const Span &span : tracer.merged()) {
        if (span.layer == Layer::replay && accepts(points, span.point))
            events += span.work;
    }
    return ratio(static_cast<double>(
                     layerSelfNs(tracer, Layer::replay, points)),
                 static_cast<double>(events));
}

double
selfTimeError(const Tracer &tracer)
{
    std::int64_t sum = 0;
    for (const std::int64_t s : selfOf(tracer))
        sum += s;
    const double expected = static_cast<double>(tracer.lanes()) *
        static_cast<double>(tracer.wallNs());
    return ratio(std::fabs(static_cast<double>(sum) - expected),
                 expected);
}

bool
writeSpans(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    const auto self = selfOf(tracer);
    const auto &spans = tracer.merged();
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        out << (i == 0 ? "" : ",\n") << "{\"name\": \""
            << layerName(span.layer)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.lane
            << ", \"ts\": " << static_cast<double>(span.beginNs) / 1e3
            << ", \"dur\": "
            << static_cast<double>(span.endNs - span.beginNs) / 1e3
            << ", \"args\": {\"id\": " << i << ", \"parent\": "
            << span.parent << ", \"point\": " << span.point
            << ", \"work\": " << span.work << ", \"self_us\": "
            << static_cast<double>(self[i]) / 1e3 << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Metrics
layerMetrics(const Tracer &setup, const Tracer &campaign,
             const std::vector<obs::CacheReportRow> &cache_delta)
{
    struct Totals
    {
        std::int64_t selfNs = 0;
        std::uint64_t work = 0;
    };
    auto totals = [](const Tracer &tracer, Layer layer) {
        Totals t;
        t.selfNs = layerSelfNs(tracer, layer);
        for (const Span &span : tracer.merged()) {
            if (span.layer == layer)
                t.work += span.work;
        }
        return t;
    };
    const auto traced = totals(setup, Layer::tracer);
    const auto gen = totals(campaign, Layer::gen);
    const auto transform = totals(campaign, Layer::transform);
    const auto compile = totals(campaign, Layer::compile);
    const auto replay = totals(campaign, Layer::replay);
    const auto faultgen = totals(campaign, Layer::faultgen);

    obs::EngineStats stats;
    obs::EngineStats netStats;
    std::uint64_t netEvents = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t restarts = 0;
    std::int64_t busyNs = 0;
    for (const Span &span : campaign.merged()) {
        if (span.layer == Layer::replay) {
            stats.merge(span.stats);
            checkpoints += span.checkpoints;
            restarts += span.restarts;
            if (span.network) {
                netStats.merge(span.stats);
                netEvents += span.work;
            }
        }
        // Top-level task spans: their parent is a lane root.
        if (span.layer != Layer::lane && span.parent >= 0 &&
            span.parent < campaign.lanes())
            busyNs += span.endNs - span.beginNs;
    }

    auto hitRate = [&](const char *name) {
        for (const auto &row : cache_delta) {
            if (row.name == name)
                return row.hitRate();
        }
        return 0.0;
    };

    const double s = 1e-9;
    const double wall = static_cast<double>(campaign.wallNs());
    const double lanes = static_cast<double>(campaign.lanes());
    const double visits = static_cast<double>(
        netStats.rateRecomputes + netStats.recomputesSkipped);

    Metrics m;
    setMetric(m, "tracer.s", static_cast<double>(traced.selfNs) * s);
    setMetric(m, "tracer.records", static_cast<double>(traced.work));
    setMetric(m, "gen.s", static_cast<double>(gen.selfNs) * s);
    setMetric(m, "gen.records", static_cast<double>(gen.work));
    setMetric(m, "transform.s",
              static_cast<double>(transform.selfNs) * s);
    setMetric(m, "transform.records_out",
              static_cast<double>(transform.work));
    setMetric(m, "transform.ns_per_record_out",
              ratio(static_cast<double>(transform.selfNs),
                    static_cast<double>(transform.work)));
    setMetric(m, "compile.s", static_cast<double>(compile.selfNs) * s);
    setMetric(m, "compile.ops", static_cast<double>(compile.work));
    setMetric(m, "compile.ns_per_op",
              ratio(static_cast<double>(compile.selfNs),
                    static_cast<double>(compile.work)));
    setMetric(m, "engine.replay_s",
              static_cast<double>(replay.selfNs) * s);
    setMetric(m, "engine.events", static_cast<double>(replay.work));
    setMetric(m, "engine.ns_per_event",
              ratio(static_cast<double>(replay.selfNs),
                    static_cast<double>(replay.work)));
    setMetric(m, "engine.heap_pushes",
              static_cast<double>(stats.heapPushes));
    setMetric(m, "engine.channel_probes",
              static_cast<double>(stats.channelProbes));
    setMetric(m, "engine.arena_high_water",
              static_cast<double>(stats.arenaHighWater));
    // Differential probes: Workload::probes fills those that apply.
    for (const char *probe :
         {"bus.queue_ratio", "net.ns_per_event.r64", "net.ns_per_event.r1024",
          "net.scale_ratio", "res.fault_scale_ratio"})
        setMetric(m, probe, 0.0);
    setMetric(m, "net.rate_recomputes",
              static_cast<double>(netStats.rateRecomputes));
    setMetric(m, "net.recomputes_skipped",
              static_cast<double>(netStats.recomputesSkipped));
    setMetric(m, "net.visits_per_event",
              ratio(visits, static_cast<double>(netEvents)));
    setMetric(m, "net.useful_recompute_frac",
              ratio(static_cast<double>(netStats.rateRecomputes),
                    visits));
    setMetric(m, "net.topo_cache_hit_rate", hitRate("topology"));
    setMetric(m, "coll.steps", static_cast<double>(stats.collSteps));
    setMetric(m, "coll.sched_cache_hit_rate", hitRate("schedule"));
    setMetric(m, "scen.events",
              static_cast<double>(stats.scenarioEvents));
    setMetric(m, "res.generate_s",
              static_cast<double>(faultgen.selfNs) * s);
    setMetric(m, "res.checkpoints", static_cast<double>(checkpoints));
    setMetric(m, "res.restarts", static_cast<double>(restarts));
    setMetric(m, "res.rework_sim_s",
              static_cast<double>(stats.rollbackReworkNs) * s);
    setMetric(m, "pool.busy_s", static_cast<double>(busyNs) * s);
    setMetric(m, "pool.efficiency",
              ratio(static_cast<double>(busyNs), lanes * wall));
    std::int64_t idleNs = 0;
    const auto self = selfOf(campaign);
    for (int lane = 0; lane < campaign.lanes(); ++lane)
        idleNs += self[static_cast<std::size_t>(lane)];
    setMetric(m, "pool.idle_frac",
              ratio(static_cast<double>(idleNs), lanes * wall));
    return m;
}

} // namespace perfbench
