#include "scenario.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>

#include "util/line_reader.hh"
#include "util/mathutil.hh"
#include "util/strings.hh"

namespace ovlsim::scen {

const char *
scenTargetName(ScenTarget target)
{
    switch (target) {
      case ScenTarget::all: return "all";
      case ScenTarget::node: return "node";
      case ScenTarget::route: return "route";
      case ScenTarget::link: return "link";
    }
    return "unknown";
}

const char *
failSemanticsName(FailSemantics semantics)
{
    switch (semantics) {
      case FailSemantics::failStop: return "fail-stop";
      case FailSemantics::stall: return "stall";
      case FailSemantics::reroute: return "reroute";
    }
    return "unknown";
}

FailSemantics
failSemanticsFromName(const std::string &name)
{
    if (name == "fail-stop")
        return FailSemantics::failStop;
    if (name == "stall")
        return FailSemantics::stall;
    if (name == "reroute")
        return FailSemantics::reroute;
    fatal("unknown failure semantics '", name,
          "' (expected fail-stop, stall or reroute)");
}

std::string
ScenarioEvent::describe() const
{
    std::string scope;
    switch (target) {
      case ScenTarget::all:
        scope = "all";
        break;
      case ScenTarget::node:
        scope = strformat("node %d", nodeA);
        break;
      case ScenTarget::route:
        scope = strformat("route %d %d", nodeA, nodeB);
        break;
      case ScenTarget::link:
        scope = strformat("link %d %d", nodeA, nodeB);
        break;
    }
    switch (kind) {
      case ScenEventKind::degrade:
        return strformat("at %.3fus degrade %s bw %g lat %g",
                         time.toUs(), scope.c_str(),
                         bandwidthFactor, latencyFactor);
      case ScenEventKind::recover:
        return strformat("at %.3fus recover %s", time.toUs(),
                         scope.c_str());
      case ScenEventKind::fail:
        return strformat("at %.3fus fail %s %s", time.toUs(),
                         scope.c_str(),
                         failSemanticsName(semantics));
      case ScenEventKind::background:
        return strformat("at %.3fus background %d %d %llu",
                         time.toUs(), nodeA, nodeB,
                         static_cast<unsigned long long>(bytes));
    }
    return "unknown scenario event";
}

namespace {

/** One event's checks; the reader runs them per line. */
void
validateEvent(const ScenarioEvent &ev)
{
    if (ev.time < SimTime::zero()) {
        fatal("scenario: event times must be non-negative (",
              ev.describe(), ")");
    }
    switch (ev.kind) {
      case ScenEventKind::degrade:
        // Written so that NaN fails too.
        if (!(ev.bandwidthFactor > 0.0) ||
            !std::isfinite(ev.bandwidthFactor) ||
            !(ev.latencyFactor > 0.0) ||
            !std::isfinite(ev.latencyFactor)) {
            fatal("scenario: degrade factors must be positive "
                  "and finite (", ev.describe(),
                  "); use `fail ... stall` to freeze a link");
        }
        break;
      case ScenEventKind::background:
        if (ev.bytes == 0) {
            fatal("scenario: background flows need a payload (",
                  ev.describe(), ")");
        }
        if (ev.nodeA == ev.nodeB) {
            fatal("scenario: background flows must cross the "
                  "network (", ev.describe(), ")");
        }
        break;
      case ScenEventKind::recover:
      case ScenEventKind::fail:
        break;
    }
    if (ev.target != ScenTarget::all && ev.nodeA < 0) {
        fatal("scenario: event names no target node (",
              ev.describe(), ")");
    }
    if ((ev.target == ScenTarget::route ||
         ev.target == ScenTarget::link) &&
        (ev.nodeB < 0 || ev.nodeA == ev.nodeB)) {
        fatal("scenario: route/link targets need two distinct "
              "nodes (", ev.describe(), ")");
    }
}

} // namespace

void
ScenarioConfig::validate() const
{
    for (const ScenarioEvent &ev : events)
        validateEvent(ev);
}

void
readScope(const LineReader &line, std::size_t &pos, ScenTarget &target,
          int &node_a, int &node_b)
{
    const std::string &t = line.token(pos++, "target");
    if (t == "all") {
        target = ScenTarget::all;
    } else if (t == "node") {
        target = ScenTarget::node;
        node_a = parseNumber<int>(line.token(pos++, "node id"));
    } else if (t == "route" || t == "link") {
        target = t == "route" ? ScenTarget::route : ScenTarget::link;
        node_a = parseNumber<int>(line.token(pos++, "node pair"));
        node_b = parseNumber<int>(line.token(pos++, "node pair"));
    } else {
        fatal("unknown target '", t,
              "' (expected all, node, route or link)");
    }
}

ScenarioConfig
readScenario(std::istream &in, const std::string &source)
{
    ScenarioConfig config;
    LineReader line(in, source);
    line.forEachLine([&] {
        if (line[0] != "at" || line.size() < 3) {
            fatal("expected `at <time_us> "
                  "<degrade|recover|fail|background> ...`");
        }
        ScenarioEvent ev;
        // Times are microseconds; an explicit `ns` suffix bypasses
        // the double conversion so any instant on the integer-ns
        // clock round-trips exactly.
        const std::string &when = line[1];
        if (when.size() > 2 && when.ends_with("ns")) {
            ev.time = SimTime::fromNs(parseNumber<std::int64_t>(
                std::string_view(when).substr(0, when.size() - 2)));
        } else {
            const double us = parseNumber<double>(when);
            if (!fitsClockUs(us))
                fatal("event time '", when,
                      "' does not fit the ns clock");
            ev.time = SimTime::fromUs(us);
        }
        const std::string &verb = line[2];
        std::size_t pos = 3;
        if (verb == "degrade") {
            ev.kind = ScenEventKind::degrade;
            readScope(line, pos, ev.target, ev.nodeA, ev.nodeB);
            while (pos < line.size()) {
                const std::string &key = line[pos++];
                if (key != "bw" && key != "lat") {
                    fatal("unknown degrade key '", key,
                          "' (expected bw or lat)");
                }
                (key == "bw" ? ev.bandwidthFactor : ev.latencyFactor) =
                    parseNumber<double>(line.token(pos++, "factor"));
            }
        } else if (verb == "recover") {
            ev.kind = ScenEventKind::recover;
            readScope(line, pos, ev.target, ev.nodeA, ev.nodeB);
        } else if (verb == "fail") {
            ev.kind = ScenEventKind::fail;
            readScope(line, pos, ev.target, ev.nodeA, ev.nodeB);
            ev.semantics = failSemanticsFromName(
                line.token(pos++, "failure semantics"));
        } else if (verb == "background") {
            ev.kind = ScenEventKind::background;
            ev.target = ScenTarget::route;
            ev.nodeA = parseNumber<int>(line.token(pos++, "source"));
            ev.nodeB = parseNumber<int>(line.token(pos++, "destination"));
            ev.bytes = parseNumber<Bytes>(line.token(pos++, "bytes"));
        } else {
            fatal("unknown event '", verb,
                  "' (expected degrade, recover, fail or background)");
        }
        if (pos != line.size())
            fatal("trailing tokens after event");
        validateEvent(ev);
        config.events.push_back(ev);
    });
    return config;
}

ScenarioConfig
readScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open scenario file '", path, "'");
    ScenarioConfig config = readScenario(in, path);
    config.sourcePath = path;
    return config;
}

void
writeScenario(const ScenarioConfig &config, std::ostream &out)
{
    out << "# ovlsim scenario\n";
    for (const ScenarioEvent &ev : config.events) {
        // Whole microseconds stay readable; anything finer is
        // written on the ns clock so it round-trips exactly.
        const std::int64_t ns = ev.time.ns();
        const std::string when = ns % 1000 == 0
            ? strformat("%lld", static_cast<long long>(ns / 1000))
            : strformat("%lldns", static_cast<long long>(ns));
        std::string scope;
        switch (ev.target) {
          case ScenTarget::all:
            scope = "all";
            break;
          case ScenTarget::node:
            scope = strformat("node %d", ev.nodeA);
            break;
          case ScenTarget::route:
            scope = strformat("route %d %d", ev.nodeA, ev.nodeB);
            break;
          case ScenTarget::link:
            scope = strformat("link %d %d", ev.nodeA, ev.nodeB);
            break;
        }
        switch (ev.kind) {
          case ScenEventKind::degrade:
            out << strformat("at %s degrade %s bw %.17g lat "
                             "%.17g\n",
                             when.c_str(), scope.c_str(),
                             ev.bandwidthFactor, ev.latencyFactor);
            break;
          case ScenEventKind::recover:
            out << strformat("at %s recover %s\n", when.c_str(),
                             scope.c_str());
            break;
          case ScenEventKind::fail:
            out << strformat("at %s fail %s %s\n", when.c_str(),
                             scope.c_str(),
                             failSemanticsName(ev.semantics));
            break;
          case ScenEventKind::background:
            out << strformat("at %s background %d %d %llu\n",
                             when.c_str(), ev.nodeA, ev.nodeB,
                             static_cast<unsigned long long>(
                                 ev.bytes));
            break;
        }
    }
}

CompiledScenario
compileScenario(const ScenarioConfig &config,
                const net::CompiledTopology *topo, int nodes)
{
    config.validate();
    const bool flat = topo == nullptr || topo->linkCount() == 0;

    CompiledScenario compiled;
    compiled.events_ = config.events;
    for (const ScenarioEvent &ev : compiled.events_) {
        const bool names_nodes = ev.target != ScenTarget::all;
        if (names_nodes &&
            (ev.nodeA >= nodes ||
             (ev.nodeB >= 0 && ev.nodeB >= nodes))) {
            fatal("scenario: event targets a node beyond the ",
                  nodes, "-node machine (", ev.describe(), ")");
        }
        if (flat && ev.kind == ScenEventKind::fail &&
            ev.semantics == FailSemantics::reroute) {
            fatal("scenario: reroute semantics needs a routed "
                  "topology with path diversity; the flat bus has "
                  "none (", ev.describe(), ")");
        }
    }

    // Sort by time, declaration order breaking ties — the stream
    // the engine merges into its heap.
    std::vector<std::uint32_t> order(compiled.events_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return compiled.events_[a].time <
                             compiled.events_[b].time;
                     });
    {
        std::vector<ScenarioEvent> sorted;
        sorted.reserve(compiled.events_.size());
        for (const std::uint32_t i : order)
            sorted.push_back(compiled.events_[i]);
        compiled.events_ = std::move(sorted);
    }

    // Resolve link sets against the compiled topology.
    compiled.linkBegin_.assign(1, 0);
    std::vector<std::uint32_t> route(flat ? 0 : topo->maxRouteLength());
    for (const ScenarioEvent &ev : compiled.events_) {
        if (!flat && ev.kind != ScenEventKind::background) {
            std::vector<std::uint32_t> links;
            switch (ev.target) {
              case ScenTarget::all:
                links.resize(topo->linkCount());
                std::iota(links.begin(), links.end(), 0u);
                break;
              case ScenTarget::node:
                for (std::uint32_t l = 0; l < topo->linkCount();
                     ++l) {
                    const auto n =
                        static_cast<std::uint32_t>(ev.nodeA);
                    if (topo->linkFrom(l) == n ||
                        topo->linkTo(l) == n)
                        links.push_back(l);
                }
                break;
              case ScenTarget::route:
              case ScenTarget::link: {
                for (const std::uint32_t l :
                     topo->route(ev.nodeA, ev.nodeB, route)) {
                    if (ev.target == ScenTarget::link &&
                        topo->isHostLink(l))
                        continue;
                    links.push_back(l);
                }
                if (links.empty()) {
                    fatal("scenario: no fabric links between "
                          "nodes ", ev.nodeA, " and ", ev.nodeB,
                          " (", ev.describe(),
                          "); use `route` to include the NICs");
                }
                break;
              }
            }
            std::sort(links.begin(), links.end());
            links.erase(std::unique(links.begin(), links.end()),
                        links.end());
            compiled.linkIds_.insert(compiled.linkIds_.end(),
                                     links.begin(), links.end());
        }
        compiled.linkBegin_.push_back(
            static_cast<std::uint32_t>(compiled.linkIds_.size()));
    }

    // Match every recover with the most recent unmatched
    // degrade/fail of the same scope.
    compiled.match_.assign(compiled.events_.size(),
                           CompiledScenario::npos);
    for (std::size_t i = 0; i < compiled.events_.size(); ++i) {
        const ScenarioEvent &ev = compiled.events_[i];
        if (ev.kind != ScenEventKind::recover)
            continue;
        bool matched = false;
        for (std::size_t j = i; j-- > 0;) {
            const ScenarioEvent &prior = compiled.events_[j];
            if ((prior.kind != ScenEventKind::degrade &&
                 prior.kind != ScenEventKind::fail) ||
                !prior.sameScope(ev) ||
                compiled.match_[j] != CompiledScenario::npos)
                continue;
            if (prior.kind == ScenEventKind::fail &&
                prior.semantics == FailSemantics::failStop) {
                fatal("scenario: cannot recover a fail-stop event "
                      "(", ev.describe(), " would undo ",
                      prior.describe(), ")");
            }
            compiled.match_[i] = static_cast<std::uint32_t>(j);
            compiled.match_[j] = static_cast<std::uint32_t>(i);
            matched = true;
            break;
        }
        if (!matched) {
            fatal("scenario: recover with nothing to undo (",
                  ev.describe(), ")");
        }
    }
    return compiled;
}

void
ActiveScenario::flatDegrade(const CompiledScenario &scenario, int src,
                            int dst, SimTime begin, double &bw,
                            double &lat, std::uint64_t &steps) const
{
    const auto apply = [&](std::uint32_t i) {
        const ScenarioEvent &ev = scenario.event(i);
        if (ev.kind == ScenEventKind::degrade &&
            effective(ev.time) <= begin &&
            begin < effective(scenario.recoveryTimeOf(i)) &&
            ev.matchesPair(src, dst)) {
            bw *= ev.bandwidthFactor;
            lat *= ev.latencyFactor;
        }
    };
    steps += live.size();
    for (const std::uint32_t i : live)
        apply(i);
    for (auto i = cursor; i < scenario.eventCount(); ++i) {
        ++steps;
        if (effective(scenario.event(i).time) > begin)
            break;
        apply(i);
    }
}

SimTime
ActiveScenario::flatStallFinish(const CompiledScenario &scenario,
                                int src, int dst, SimTime begin,
                                SimTime finish,
                                std::uint64_t &steps) const
{
    // Entries come in start order and `covered` is the latest
    // recovery charged so far, so a window overlapping an earlier
    // one charges only its part past it. Nothing from `finish` on
    // can move the finish, so the walk stops there.
    SimTime covered = begin;
    const auto charge = [&](std::uint32_t i) {
        const ScenarioEvent &ev = scenario.event(i);
        const SimTime from = std::max(effective(ev.time), covered);
        if (from >= finish)
            return false;
        if (ev.kind == ScenEventKind::fail &&
            ev.semantics == FailSemantics::stall &&
            ev.matchesPair(src, dst)) {
            const SimTime to = effective(scenario.recoveryTimeOf(i));
            if (to == SimTime::max()) {
                finish = to;
                return false;
            }
            if (to > from) {
                finish += to - from;
                covered = to;
            }
        }
        return true;
    };
    for (const std::uint32_t i : live) {
        ++steps;
        if (!charge(i))
            return finish;
    }
    for (auto i = cursor; i < scenario.eventCount(); ++i) {
        ++steps;
        if (!charge(i))
            break;
    }
    return finish;
}

std::string
FailureDiagnosis::toString() const
{
    std::string detail = strformat(
        "scenario failure `%s` fired at %.3fus with %zu rank(s) "
        "unfinished:",
        event.c_str(), time.toUs(), blockedRanks.size());
    for (const BlockedRank &r : blockedRanks) {
        detail += strformat("\n  rank %d: state=%s pc=%zu/%zu",
                            r.rank, r.state.c_str(), r.pc, r.end);
    }
    return detail;
}

FailureError::FailureError(FailureDiagnosis diagnosis)
    : FatalError(diagnosis.toString()),
      diag_(std::make_shared<const FailureDiagnosis>(
          std::move(diagnosis)))
{}

} // namespace ovlsim::scen
