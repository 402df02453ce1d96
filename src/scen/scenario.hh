/**
 * @file
 * Dynamic platform scenarios: fault injection, link degradation and
 * background traffic for the replay engine.
 *
 * A static platform answers "does overlap hide communication on
 * this machine"; real machines degrade mid-run — links slow down
 * under external usage, NICs and switches die (the dynamic-platform
 * use case SimGrid names as central). A ScenarioConfig declares a
 * timestamped list of such events, parsed from a small text format
 * (referenced from platform files via `scenario_file = ...`; read
 * through util/line_reader.hh, which fixes its comment rule and its
 * `<file> line <n>: ` errors) or built programmatically:
 *
 *     # time is in microseconds of simulated time
 *     at 1500 degrade all bw 0.5 lat 2.0
 *     at 3000 recover all
 *     at 2000 fail link 0 7 stall
 *     at 2500 recover link 0 7
 *     at 1000 fail node 3 fail-stop
 *     at  800 fail route 2 5 reroute
 *     at  500 background 0 7 1048576
 *
 * Targets: `all` (every link), `node N` (N's injection/reception
 * links), `route A B` (the full compiled A->B route including the
 * NICs), `link A B` (only the fabric links of that route). Failure
 * semantics: `fail-stop` terminates the replay with a structured
 * FailureDiagnosis naming the event and every unfinished rank
 * (mirroring the deadlock diagnosis); `stall` freezes affected
 * flows until the matching `recover`; `reroute` re-resolves routes
 * around the dead links where the topology has path diversity and
 * raises FatalError where it does not. `background <src> <dst>
 * <bytes>` injects a one-shot flow that occupies links without
 * belonging to the app.
 *
 * compileScenario() lowers a config once into a CompiledScenario —
 * events sorted by time with their link sets resolved against the
 * compiled topology and every recover matched to its event — the
 * same compile-once philosophy as sim/program.hh and
 * net::compileTopology. The engine merges the stream into its event
 * heap behind a seam next to netMode_ and applies it to both the
 * flat-bus and LinkNetwork cost paths.
 */

#ifndef OVLSIM_SCEN_SCENARIO_HH
#define OVLSIM_SCEN_SCENARIO_HH

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/topology.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace ovlsim {
class LineReader;
} // namespace ovlsim

namespace ovlsim::scen {

/** What a scenario event does. */
enum class ScenEventKind : std::uint8_t {
    /** Scale a link set's bandwidth/latency until recovered. */
    degrade,
    /** Undo the matching degrade or stall/reroute failure. */
    recover,
    /** Kill a link set with configurable semantics. */
    fail,
    /** One-shot flow occupying links without belonging to the app. */
    background,
};

/** What a degrade/fail/recover event applies to. */
enum class ScenTarget : std::uint8_t {
    /** Every link of the fabric (`all`). */
    all,
    /** Node A's injection and reception (NIC) links. */
    node,
    /** The full compiled A -> B route, NICs included. */
    route,
    /** Only the fabric links of the A -> B route. */
    link,
};

/** What happens to traffic crossing a failed link set. */
enum class FailSemantics : std::uint8_t {
    /** Terminate the replay with a FailureDiagnosis. */
    failStop,
    /** Freeze affected flows until the matching recover. */
    stall,
    /** Route around the dead links; FatalError without diversity. */
    reroute,
};

/** Stable names (scenario files, reports). */
const char *scenTargetName(ScenTarget target);
const char *failSemanticsName(FailSemantics semantics);
FailSemantics failSemanticsFromName(const std::string &name);

/** One timestamped scenario event. */
struct ScenarioEvent
{
    SimTime time;
    ScenEventKind kind = ScenEventKind::degrade;
    ScenTarget target = ScenTarget::all;
    /** Target node (node) or route source (route/link/background). */
    int nodeA = -1;
    /** Route destination (route/link/background). */
    int nodeB = -1;
    /** Capacity multiplier while a degrade is active. */
    double bandwidthFactor = 1.0;
    /** Latency multiplier while a degrade is active. */
    double latencyFactor = 1.0;
    FailSemantics semantics = FailSemantics::failStop;
    /** Background payload size. */
    Bytes bytes = 0;

    /** Same scope? (what a recover must name to match). */
    bool
    sameScope(const ScenarioEvent &other) const
    {
        return target == other.target && nodeA == other.nodeA &&
            nodeB == other.nodeB;
    }

    /**
     * Flat-bus scope test: does a transfer src -> dst (node ids)
     * fall under this event? `all` covers every remote transfer,
     * `node` anything touching the node, `route`/`link` exactly
     * the ordered pair.
     */
    bool
    matchesPair(int src, int dst) const
    {
        switch (target) {
          case ScenTarget::all:
            return true;
          case ScenTarget::node:
            return src == nodeA || dst == nodeA;
          case ScenTarget::route:
          case ScenTarget::link:
            return src == nodeA && dst == nodeB;
        }
        return false;
    }

    /** One-line description for diagnoses and reports. */
    std::string describe() const;

    bool operator==(const ScenarioEvent &) const = default;
};

/** A declarative scenario: an unordered bag of events. */
struct ScenarioConfig
{
    /** Where the events came from (round-trips the platform-file
     * `scenario_file` key; empty for programmatic configs). */
    std::string sourcePath;
    std::vector<ScenarioEvent> events;

    bool empty() const { return events.empty(); }

    /** Range checks; throws FatalError on nonsense values. */
    void validate() const;

    bool operator==(const ScenarioConfig &) const = default;
};

/**
 * Parse the event-list format through util/line_reader.hh (its
 * comment rule; `source` and the line number lead every error).
 */
ScenarioConfig readScenario(std::istream &in,
                            const std::string &source = "scenario");

/**
 * Read a target, `all`, `node N`, `route A B` or `link A B`, from
 * the current line's tokens at `pos`, advancing `pos` past it. The
 * scenario and fault-model readers share this grammar.
 */
void readScope(const LineReader &line, std::size_t &pos,
               ScenTarget &target, int &node_a, int &node_b);

/** Parse a scenario file; remembers `path` as sourcePath. */
ScenarioConfig readScenarioFile(const std::string &path);

/** Emit a config in the readScenario() format (round-trips). */
void writeScenario(const ScenarioConfig &config, std::ostream &out);

/**
 * A scenario lowered against one compiled topology: events sorted
 * by (time, declaration order) with per-event resolved link sets
 * and recover events matched to what they undo. Immutable; the
 * engine replays any number of times against it.
 */
class CompiledScenario
{
  public:
    static constexpr std::uint32_t npos =
        std::numeric_limits<std::uint32_t>::max();

    CompiledScenario() = default;

    bool empty() const { return events_.empty(); }
    std::size_t eventCount() const { return events_.size(); }

    const ScenarioEvent &
    event(std::size_t i) const
    {
        return events_[i];
    }

    /** Sorted link ids the event covers (empty on flat-bus). */
    std::span<const std::uint32_t>
    linksOf(std::size_t i) const
    {
        return {linkIds_.data() + linkBegin_[i],
                linkIds_.data() + linkBegin_[i + 1]};
    }

    bool
    linkSetContains(std::size_t i, std::uint32_t link) const
    {
        const auto links = linksOf(i);
        return std::binary_search(links.begin(), links.end(), link);
    }

    /**
     * For a recover: the index of the degrade/fail it undoes. For a
     * degrade or stall/reroute fail: the index of its recover, npos
     * when it never recovers.
     */
    std::uint32_t matchOf(std::size_t i) const { return match_[i]; }

    /** When event i's effect ends; SimTime::max() when never. */
    SimTime
    recoveryTimeOf(std::size_t i) const
    {
        const std::uint32_t m = match_[i];
        return m == npos ? SimTime::max() : events_[m].time;
    }

  private:
    friend CompiledScenario compileScenario(
        const ScenarioConfig &config,
        const net::CompiledTopology *topo, int nodes);

    std::vector<ScenarioEvent> events_;
    /** CSR link sets, each window sorted ascending. */
    std::vector<std::uint32_t> linkBegin_;
    std::vector<std::uint32_t> linkIds_;
    std::vector<std::uint32_t> match_;
};

/**
 * Lower `config` for a machine of `nodes` nodes. `topo` is the
 * compiled topology the replay runs on, or nullptr/flat for the
 * classic bus path (link sets stay empty and events apply by node
 * scope). Throws FatalError for out-of-range nodes, recover events
 * with nothing to undo, reroute on a flat bus, or `link` targets
 * with no fabric links between the endpoints.
 */
CompiledScenario compileScenario(const ScenarioConfig &config,
                                 const net::CompiledTopology *topo,
                                 int nodes);

/**
 * What a replay has made of a CompiledScenario so far, the one
 * representation of active scenario state: the engine's scenario
 * events update it, both cost paths read it, and a checkpoint
 * images it as one value.
 *
 * One effective-time rule: an event takes effect at its compiled
 * time plus `shift`, and ends at its recovery's compiled time plus
 * `shift`. The shift stays zero unless a checkpoint freeze or a
 * rollback moved the machine; both move every pending event alike,
 * so effective order is stream order.
 */
struct ActiveScenario
{
    /** Index of the next event to fire; lower indices have fired. */
    std::uint32_t cursor = 0;
    SimTime shift;
    /** Fired degrades and stall/reroute failures not yet recovered
     * and background flows in flight, ascending: firing appends, a
     * recover or a background finish erases. */
    std::vector<std::uint32_t> live;

    /** Compiled instant `t` in effective time (max stays max). */
    SimTime
    effective(SimTime t) const
    {
        return t == SimTime::max() ? t : t + shift;
    }

    void
    erase(std::uint32_t i)
    {
        live.erase(std::lower_bound(live.begin(), live.end(), i));
    }

    /**
     * Flat-bus pricing of a src -> dst transfer starting at `begin`
     * reads the live entries, then the pending events up to the
     * transfer's own window, adding how many it read to `steps`.
     *
     * flatDegrade multiplies into `bw` and `lat` the factors of the
     * matching degrades in effect at `begin`, in index order, so the
     * products round in stream order.
     */
    void flatDegrade(const CompiledScenario &scenario, int src,
                     int dst, SimTime begin, double &bw, double &lat,
                     std::uint64_t &steps) const;

    /**
     * flatStallFinish stretches a serialization from `begin` to
     * `finish` across the matching stall windows; overlapping
     * windows charge their union once. SimTime::max() means a stall
     * that never recovers.
     */
    SimTime flatStallFinish(const CompiledScenario &scenario, int src,
                            int dst, SimTime begin, SimTime finish,
                            std::uint64_t &steps) const;
};

/** One unfinished rank at the instant a fail-stop event fired. */
struct BlockedRank
{
    Rank rank = 0;
    /** Engine rank state name ("recv-blocked", "running", ...). */
    std::string state;
    std::size_t pc = 0;
    std::size_t end = 0;
};

/**
 * Structured report of a fail-stop termination: which event fired,
 * when, and every rank left unfinished — the failure-semantics
 * mirror of the engine's deadlock diagnosis.
 */
struct FailureDiagnosis
{
    /** describe() of the fail event. */
    std::string event;
    SimTime time;
    std::vector<BlockedRank> blockedRanks;

    std::string toString() const;
};

/**
 * Thrown when a fail-stop scenario event fires. A FatalError (the
 * scenario asked for termination; the replay itself is healthy)
 * carrying the structured diagnosis.
 */
class FailureError : public FatalError
{
  public:
    explicit FailureError(FailureDiagnosis diagnosis);

    const FailureDiagnosis &diagnosis() const { return *diag_; }

  private:
    /** Shared so the exception stays nothrow-copyable. */
    std::shared_ptr<const FailureDiagnosis> diag_;
};

} // namespace ovlsim::scen

#endif // OVLSIM_SCEN_SCENARIO_HH
