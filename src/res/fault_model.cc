#include "fault_model.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/counter_rng.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim::res {

const char *
faultEffectName(FaultEffect effect)
{
    switch (effect) {
      case FaultEffect::failStop: return "fail-stop";
      case FaultEffect::stall: return "stall";
      case FaultEffect::degrade: return "degrade";
    }
    return "unknown";
}

namespace {

/** Scope word(s) of a process in the model-file spelling. */
std::string
scopeString(const FaultProcess &proc)
{
    switch (proc.target) {
      case scen::ScenTarget::all:
        return "all";
      case scen::ScenTarget::node:
        return strformat("node %d", proc.nodeA);
      default:
        return strformat("link %d %d", proc.nodeA, proc.nodeB);
    }
}

} // namespace

std::string
FaultProcess::describe() const
{
    const std::string scope = scopeString(*this);
    if (usesTrace()) {
        return strformat("process %s trace %s", scope.c_str(),
                         tracePath.c_str());
    }
    if (effect == FaultEffect::degrade) {
        return strformat("process %s degrade %g mtbf_us %g "
                         "mttr_us %g",
                         scope.c_str(), degradeFactor, mtbfUs,
                         mttrUs);
    }
    return strformat("process %s %s mtbf_us %g mttr_us %g",
                     scope.c_str(), faultEffectName(effect), mtbfUs,
                     mttrUs);
}

void
FaultModel::validate() const
{
    if (!(horizonUs >= 0.0) || !std::isfinite(horizonUs))
        fatal("fault model: horizon_us must be finite and "
              "non-negative");
    for (const FaultProcess &proc : processes) {
        if (proc.target != scen::ScenTarget::node &&
            proc.target != scen::ScenTarget::link &&
            proc.target != scen::ScenTarget::all) {
            fatal("fault model: processes target a node, a link or "
                  "the whole machine (", proc.describe(), ")");
        }
        if (proc.target == scen::ScenTarget::all &&
            (proc.effect != FaultEffect::failStop ||
             proc.usesTrace())) {
            fatal("fault model: machine-wide processes are "
                  "fail-stop only (", proc.describe(), ")");
        }
        if (proc.target != scen::ScenTarget::all && proc.nodeA < 0) {
            fatal("fault model: process names no target node (",
                  proc.describe(), ")");
        }
        if (proc.target == scen::ScenTarget::link &&
            (proc.nodeB < 0 || proc.nodeB == proc.nodeA)) {
            fatal("fault model: link processes need two distinct "
                  "nodes (", proc.describe(), ")");
        }
        if (proc.usesTrace()) {
            if (!(proc.periodicityUs > 0.0) ||
                !std::isfinite(proc.periodicityUs)) {
                fatal("fault model: trace periodicity must be "
                      "positive (", proc.describe(), ")");
            }
            double prev = -1.0;
            for (const AvailabilityPoint &pt : proc.trace) {
                if (!(pt.timeUs >= 0.0) ||
                    pt.timeUs >= proc.periodicityUs ||
                    pt.timeUs <= prev) {
                    fatal("fault model: trace times must be "
                          "strictly increasing within [0, "
                          "periodicity) (", proc.describe(), ")");
                }
                prev = pt.timeUs;
                if (!(pt.value >= 0.0) || pt.value > 1.0 ||
                    !std::isfinite(pt.value)) {
                    fatal("fault model: trace values are capacity "
                          "fractions in [0, 1] (", proc.describe(),
                          ")");
                }
            }
            continue;
        }
        if (!(proc.mtbfUs > 0.0) || !std::isfinite(proc.mtbfUs)) {
            fatal("fault model: mtbf_us must be positive (",
                  proc.describe(), ")");
        }
        if (proc.effect != FaultEffect::failStop &&
            (!(proc.mttrUs > 0.0) || !std::isfinite(proc.mttrUs))) {
            fatal("fault model: recoverable processes need a "
                  "positive mttr_us (", proc.describe(), ")");
        }
        if (proc.effect == FaultEffect::degrade &&
            (!(proc.degradeFactor > 0.0) ||
             proc.degradeFactor >= 1.0)) {
            fatal("fault model: degrade factors lie in (0, 1) (",
                  proc.describe(), ")");
        }
    }
}

namespace {

/** Event skeleton carrying one process's scope. */
scen::ScenarioEvent
scopedEvent(const FaultProcess &proc)
{
    scen::ScenarioEvent ev;
    ev.target = proc.target;
    ev.nodeA = proc.nodeA;
    ev.nodeB = proc.nodeB;
    return ev;
}

/** The fault event of an exponential process at `time`. */
scen::ScenarioEvent
faultEvent(const FaultProcess &proc, SimTime time)
{
    scen::ScenarioEvent ev = scopedEvent(proc);
    ev.time = time;
    switch (proc.effect) {
      case FaultEffect::failStop:
        ev.kind = scen::ScenEventKind::fail;
        ev.semantics = scen::FailSemantics::failStop;
        break;
      case FaultEffect::stall:
        ev.kind = scen::ScenEventKind::fail;
        ev.semantics = scen::FailSemantics::stall;
        break;
      case FaultEffect::degrade:
        ev.kind = scen::ScenEventKind::degrade;
        ev.bandwidthFactor = proc.degradeFactor;
        break;
    }
    return ev;
}

scen::ScenarioEvent
recoverEvent(const FaultProcess &proc, SimTime time)
{
    scen::ScenarioEvent ev = scopedEvent(proc);
    ev.time = time;
    ev.kind = scen::ScenEventKind::recover;
    return ev;
}

/**
 * Expand one exponential renewal process. Failure instants arrive
 * with exponential inter-arrival gaps of mean MTBF measured from
 * the end of the previous repair; repairs take exponential MTTR.
 * Faults past the horizon are cut; the matching repair of an
 * in-horizon fault always lands so no generated stall outlives the
 * scenario unrecovered. Fail-stop processes have no repair event —
 * each renewal is a fresh crash (a rollback, under checkpointing) —
 * so their clock advances by the MTBF gap alone.
 */
void
expandExponential(const FaultProcess &proc, CounterRng rng,
                  SimTime horizon,
                  std::vector<scen::ScenarioEvent> &out)
{
    double t_us = 0.0;
    const double horizon_us = static_cast<double>(horizon.ns()) *
        1e-3;
    while (true) {
        t_us += rng.nextExponential(proc.mtbfUs);
        if (!(t_us < horizon_us))
            return;
        out.push_back(
            faultEvent(proc, SimTime::fromUs(t_us)));
        if (proc.effect == FaultEffect::failStop)
            continue;
        t_us += rng.nextExponential(proc.mttrUs);
        out.push_back(
            recoverEvent(proc, SimTime::fromUs(t_us)));
    }
}

/**
 * Expand one availability-trace process: replay the periodic
 * pattern over [0, horizon), emitting a transition whenever the
 * capacity fraction changes band (up at 1, stalled at 0, degraded
 * in between). A change away from a non-up state recovers it first,
 * at the same instant — compileScenario keeps same-time events in
 * declaration order, so the recover lands before its replacement.
 */
void
expandTrace(const FaultProcess &proc, SimTime horizon,
            std::vector<scen::ScenarioEvent> &out)
{
    const double horizon_us = static_cast<double>(horizon.ns()) *
        1e-3;
    double current = 1.0; // capacity fraction in force
    SimTime last_change = SimTime::zero();
    for (std::uint64_t period = 0;; ++period) {
        const double base_us = static_cast<double>(period) *
            proc.periodicityUs;
        if (!(base_us < horizon_us))
            break;
        for (const AvailabilityPoint &pt : proc.trace) {
            const double at_us = base_us + pt.timeUs;
            if (!(at_us < horizon_us))
                break;
            if (pt.value == current)
                continue;
            const SimTime at = SimTime::fromUs(at_us);
            if (current < 1.0) {
                out.push_back(recoverEvent(proc, at));
                last_change = at;
            }
            if (pt.value >= 1.0) {
                current = 1.0;
                continue;
            }
            scen::ScenarioEvent ev = scopedEvent(proc);
            ev.time = at;
            if (pt.value <= 0.0) {
                ev.kind = scen::ScenEventKind::fail;
                ev.semantics = scen::FailSemantics::stall;
            } else {
                ev.kind = scen::ScenEventKind::degrade;
                ev.bandwidthFactor = pt.value;
            }
            out.push_back(ev);
            current = pt.value;
            last_change = at;
        }
    }
    // The horizon cut the pattern mid-outage: recover at the next
    // period boundary so the replay cannot wedge on it forever.
    if (current < 1.0) {
        const double next_up =
            (std::floor(last_change.toUs() / proc.periodicityUs) +
             1.0) *
            proc.periodicityUs;
        out.push_back(
            recoverEvent(proc, SimTime::fromUs(next_up)));
    }
}

} // namespace

scen::ScenarioConfig
generateScenario(const FaultModel &model, std::uint64_t seed,
                 SimTime horizon)
{
    model.validate();
    if (horizon <= SimTime::zero())
        fatal("fault model: generation horizon must be positive");

    scen::ScenarioConfig config;
    for (std::size_t i = 0; i < model.processes.size(); ++i) {
        const FaultProcess &proc = model.processes[i];
        if (proc.usesTrace()) {
            expandTrace(proc, horizon, config.events);
        } else {
            // One counter-based substream per process: process i's
            // draws depend only on (seed, i), never on how many
            // events its neighbours produced.
            expandExponential(
                proc, CounterRng(seed, static_cast<std::uint64_t>(i)),
                horizon, config.events);
        }
    }
    // Emission order groups by process; the compiled scenario
    // stable-sorts by time. Validate what we emit — generation bugs
    // should fail here, not deep inside a sweep worker.
    config.validate();
    return config;
}

scen::ScenarioConfig
generateScenario(const FaultModel &model)
{
    return generateScenario(model, model.seed,
                            SimTime::fromUs(model.horizonUs));
}

double
dalyInterval(double mtbf_us, double checkpoint_cost_us)
{
    if (!(mtbf_us > 0.0) || !std::isfinite(mtbf_us))
        fatal("dalyInterval: mtbf_us must be positive");
    if (!(checkpoint_cost_us >= 0.0) ||
        !std::isfinite(checkpoint_cost_us)) {
        fatal("dalyInterval: checkpoint cost must be finite and "
              "non-negative");
    }
    const double root =
        std::sqrt(2.0 * checkpoint_cost_us * mtbf_us);
    // Past the validity bound (MTBF < C/2) the first-order formula
    // goes negative; keep the positive degenerate branch rather
    // than suggesting a nonsense interval.
    return root > checkpoint_cost_us ? root - checkpoint_cost_us
                                     : root;
}

namespace {

std::vector<std::string>
tokensOf(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> tokens;
    std::string token;
    while (in >> token)
        tokens.push_back(token);
    return tokens;
}

std::string
joinDir(const std::string &dir, const std::string &path)
{
    if (dir.empty() || (!path.empty() && path.front() == '/'))
        return path;
    return dir + "/" + path;
}

std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

/** A seed as writeFaultModel writes it: any unsigned 64-bit
 * integer, with no sign. */
std::uint64_t
parseSeed(const std::string &text)
{
    std::uint64_t seed = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, seed);
    if (ec != std::errc() || ptr != end) {
        fatal("seed must be an unsigned 64-bit integer, got '",
              text, "'");
    }
    return seed;
}

} // namespace

std::vector<AvailabilityPoint>
readAvailabilityTrace(std::istream &in, const std::string &source,
                      double &periodicity_us)
{
    std::vector<AvailabilityPoint> trace;
    periodicity_us = 0.0;
    // A trace has one period: a second header is a typo, fatal at
    // its line, naming the first.
    std::size_t period_line = 0;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t comment = line.find('#');
        if (comment != std::string::npos)
            line.resize(comment);
        const auto tokens = tokensOf(line);
        if (tokens.empty())
            continue;
        try {
            if (tokens[0] == "PERIODICITY") {
                if (period_line != 0) {
                    fatal("duplicate PERIODICITY (first set on line ",
                          period_line, ")");
                }
                if (tokens.size() != 2)
                    fatal("expected `PERIODICITY <us>`");
                periodicity_us = parseDouble(tokens[1]);
                period_line = line_no;
            } else {
                if (period_line == 0)
                    fatal("availability trace must start with "
                          "`PERIODICITY <us>`");
                if (tokens.size() != 2)
                    fatal("expected `<time_us> <value>`");
                AvailabilityPoint pt;
                pt.timeUs = parseDouble(tokens[0]);
                pt.value = parseDouble(tokens[1]);
                trace.push_back(pt);
            }
        } catch (const FatalError &err) {
            fatal(source, " line ", line_no, ": ", err.what());
        }
    }
    if (period_line == 0 || trace.empty())
        fatal(source, ": availability trace has no points");
    return trace;
}

std::vector<AvailabilityPoint>
readAvailabilityTraceFile(const std::string &path,
                          double &periodicity_us)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open availability trace '", path, "'");
    return readAvailabilityTrace(in, path, periodicity_us);
}

FaultModel
readFaultModel(std::istream &in, const std::string &source,
               const std::string &dir)
{
    FaultModel model;
    // A model describes one machine, so a repeated key is a typo:
    // fatal at its second occurrence, naming the first line.
    std::map<std::string, std::size_t> key_lines;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t comment = line.find('#');
        if (comment != std::string::npos)
            line.resize(comment);
        const auto tokens = tokensOf(line);
        if (tokens.empty())
            continue;
        try {
            if (tokens.size() == 3 && tokens[1] == "=") {
                const std::string &key = tokens[0];
                if (key != "seed" && key != "horizon_us") {
                    fatal("unknown fault model key '", key,
                          "' (expected seed or horizon_us)");
                }
                const auto [first, fresh] =
                    key_lines.emplace(key, line_no);
                if (!fresh) {
                    fatal("duplicate key '", key,
                          "' (first set on line ", first->second,
                          ")");
                }
                if (key == "seed")
                    model.seed = parseSeed(tokens[2]);
                else
                    model.horizonUs = parseDouble(tokens[2]);
                continue;
            }
            if (tokens[0] != "process") {
                fatal("expected `<key> = <value>` or `process "
                      "<node|link> ...`");
            }
            FaultProcess proc;
            std::size_t pos = 1;
            const auto need = [&](std::size_t extra,
                                  const char *what) {
                if (pos + extra > tokens.size())
                    fatal("truncated process: missing ", what);
            };
            need(1, "target");
            const std::string &t = tokens[pos++];
            if (t == "all") {
                proc.target = scen::ScenTarget::all;
            } else if (t == "node") {
                need(1, "node id");
                proc.target = scen::ScenTarget::node;
                proc.nodeA = checkedInt(parseInt(tokens[pos++]));
            } else if (t == "link") {
                need(2, "node pair");
                proc.target = scen::ScenTarget::link;
                proc.nodeA = checkedInt(parseInt(tokens[pos++]));
                proc.nodeB = checkedInt(parseInt(tokens[pos++]));
            } else {
                fatal("unknown process target '", t,
                      "' (expected all, node or link)");
            }
            need(1, "effect");
            const std::string &effect = tokens[pos++];
            if (effect == "trace") {
                need(1, "trace path");
                proc.tracePath = tokens[pos++];
                proc.trace = readAvailabilityTraceFile(
                    joinDir(dir, proc.tracePath),
                    proc.periodicityUs);
            } else if (effect == "fail-stop") {
                proc.effect = FaultEffect::failStop;
            } else if (effect == "stall") {
                proc.effect = FaultEffect::stall;
            } else if (effect == "degrade") {
                need(1, "degrade factor");
                proc.effect = FaultEffect::degrade;
                proc.degradeFactor = parseDouble(tokens[pos++]);
            } else {
                fatal("unknown process effect '", effect,
                      "' (expected fail-stop, stall, degrade or "
                      "trace)");
            }
            const std::size_t first_key = pos;
            while (pos < tokens.size()) {
                const std::string &key = tokens[pos++];
                need(1, "value");
                if (key != "mtbf_us" && key != "mttr_us") {
                    fatal("unknown process key '", key,
                          "' (expected mtbf_us or mttr_us)");
                }
                for (std::size_t k = first_key; k + 2 < pos; k += 2) {
                    if (tokens[k] == key) {
                        fatal("duplicate process key '", key,
                              "' (first set on line ", line_no, ")");
                    }
                }
                (key == "mtbf_us" ? proc.mtbfUs : proc.mttrUs) =
                    parseDouble(tokens[pos++]);
            }
            model.processes.push_back(std::move(proc));
        } catch (const FatalError &err) {
            fatal(source, " line ", line_no, ": ", err.what());
        }
    }
    model.validate();
    return model;
}

FaultModel
readFaultModelFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault model file '", path, "'");
    FaultModel model = readFaultModel(in, path, dirOf(path));
    model.sourcePath = path;
    return model;
}

void
writeFaultModel(const FaultModel &model, std::ostream &out)
{
    out << "# ovlsim fault model\n";
    out << strformat("seed = %llu\n",
                     static_cast<unsigned long long>(model.seed));
    out << strformat("horizon_us = %.17g\n", model.horizonUs);
    for (const FaultProcess &proc : model.processes) {
        const std::string scope = scopeString(proc);
        if (proc.usesTrace()) {
            out << strformat("process %s trace %s\n", scope.c_str(),
                             proc.tracePath.c_str());
        } else if (proc.effect == FaultEffect::degrade) {
            out << strformat(
                "process %s degrade %.17g mtbf_us %.17g "
                "mttr_us %.17g\n",
                scope.c_str(), proc.degradeFactor, proc.mtbfUs,
                proc.mttrUs);
        } else if (proc.effect == FaultEffect::failStop) {
            out << strformat("process %s fail-stop mtbf_us %.17g\n",
                             scope.c_str(), proc.mtbfUs);
        } else {
            out << strformat(
                "process %s stall mtbf_us %.17g mttr_us %.17g\n",
                scope.c_str(), proc.mtbfUs, proc.mttrUs);
        }
    }
}

} // namespace ovlsim::res
