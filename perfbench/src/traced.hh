/**
 * @file
 * In-memory span recorder of the traced benchmark run, and the
 * per-layer metrics derived from its spans.
 *
 * The traced run reproduces a campaign as explicit calls into each
 * layer's public functions and wraps every call in a span recorded
 * from the benchmark's own code: nothing inside the simulator is
 * instrumented. Each pool lane appends to its own buffer, so
 * recording takes no lock; spans stay in memory and are merged once
 * the campaign ends.
 */

#ifndef OVLSIM_PERFBENCH_TRACED_HH
#define OVLSIM_PERFBENCH_TRACED_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/stats.hh"

namespace perfbench {

namespace obs = ovlsim::obs;

/** What a span times. `lane` spans are the roots: one per pool lane,
 * covering the whole recording window. */
enum class Layer : std::uint8_t {
    lane,
    point,
    tracer,
    gen,
    transform,
    compile,
    replay,
    faultgen,
};

const char *layerName(Layer layer);

/** One recorded interval. */
struct Span
{
    Layer layer = Layer::point;
    /** Campaign point the span belongs to (Tracer::addPoint); -1 for
     * lane roots. */
    int point = -1;
    /** Index of the parent span in the merged list; -1 for roots. */
    int parent = -1;
    int lane = 0;
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    /** Work of the call: records traced, generated or emitted by the
     * transform, ops compiled, events replayed. */
    std::uint64_t work = 0;
    /** Replay spans: the run's engine counters and resilience
     * outcome, and whether it ran on a link network. */
    obs::EngineStats stats;
    std::uint64_t checkpoints = 0;
    std::uint64_t restarts = 0;
    bool network = false;
};

/**
 * Span recorder for one window (a set-up or one campaign) on a
 * fixed number of lanes. addPoint() is called from one thread
 * between parallel phases; open()/close() from the lane that owns
 * the span. merged() is valid after finish().
 */
class Tracer
{
  public:
    explicit Tracer(int lanes);

    int lanes() const { return static_cast<int>(open_.size()); }

    /** A new campaign point identifier; spans of one point carry
     * it. */
    int addPoint() { return points_++; }

    /** Open a span on `lane`; its parent is the lane's innermost
     * open span. Returns a handle for close(). */
    std::size_t open(int lane, Layer layer, int point);
    /** Close the span and hand back its record for the work fields. */
    Span &close(int lane, std::size_t handle);

    /** Stamp the window's end and merge the lane buffers under one
     * root span per lane. */
    void finish();

    /** Window length (start to finish), ns. */
    std::int64_t wallNs() const { return endNs_ - startNs_; }
    const std::vector<Span> &merged() const { return merged_; }

  private:
    std::int64_t now() const;

    std::chrono::steady_clock::time_point epoch_;
    std::int64_t startNs_ = 0;
    std::int64_t endNs_ = 0;
    int points_ = 0;
    /** Per lane: its spans (parent = lane-local index) and the stack
     * of open ones. */
    std::vector<std::vector<Span>> spans_;
    std::vector<std::vector<std::size_t>> open_;
    std::vector<Span> merged_;
};

/**
 * RAII span: opens on construction (no-op for a null tracer) and
 * closes on destruction, after the caller filled record() fields.
 */
class Scope
{
  public:
    Scope(Tracer *tracer, int lane, Layer layer, int point)
        : tracer_(tracer), lane_(lane)
    {
        if (tracer_ != nullptr)
            handle_ = tracer_->open(lane, layer, point);
    }

    ~Scope()
    {
        if (tracer_ != nullptr) {
            Span &span = tracer_->close(lane_, handle_);
            span.work = work;
            span.stats = stats;
            span.checkpoints = checkpoints;
            span.restarts = restarts;
            span.network = network;
        }
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t work = 0;
    obs::EngineStats stats;
    std::uint64_t checkpoints = 0;
    std::uint64_t restarts = 0;
    bool network = false;

  private:
    Tracer *tracer_;
    int lane_;
    std::size_t handle_ = 0;
};

/** Named metric values in print order. */
using Metrics = std::vector<std::pair<std::string, double>>;

/** Set (or add) metric `name`. */
void setMetric(Metrics &metrics, const std::string &name, double value);

/** Sum of self times (ns) over spans of `layer`, only of the given
 * points unless `points` is empty. */
std::int64_t layerSelfNs(const Tracer &tracer, Layer layer,
                         const std::vector<int> &points = {});

/** Replay self time per event (ns) over the given points. */
double replayNsPerEvent(const Tracer &tracer,
                        const std::vector<int> &points);

/**
 * The per-layer metrics every workload reports, from its set-up
 * window and one traced campaign window; `cache_delta` is
 * obs::cacheReport() after the campaign minus before. Layers a
 * workload never calls, and the workload-specific probes, read 0.
 */
Metrics layerMetrics(const Tracer &setup, const Tracer &campaign,
                     const std::vector<obs::CacheReportRow> &cache_delta);

/** |sum of self times - lanes x window| / (lanes x window): 0 for a
 * well-nested span tree. */
double selfTimeError(const Tracer &tracer);

/**
 * Write the merged spans once, as Chrome trace-event JSON (one
 * complete event per span, thread = lane; args carry the span's
 * index, parent, point, work and self time). Loadable in Perfetto.
 * Returns false when the file cannot be written.
 */
bool writeSpans(const Tracer &tracer, const std::string &path);

} // namespace perfbench

#endif // OVLSIM_PERFBENCH_TRACED_HH
