#include "fault_model.hh"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/counter_rng.hh"
#include "util/line_reader.hh"
#include "util/logging.hh"
#include "util/mathutil.hh"
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
        return strformat("%s %d %d", scen::scenTargetName(proc.target),
                         proc.nodeA, proc.nodeB);
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
FaultProcess::validate() const
{
    if (target != scen::ScenTarget::node &&
        target != scen::ScenTarget::link &&
        target != scen::ScenTarget::all) {
        fatal("fault model: processes target a node, a link or the "
              "whole machine (", describe(), ")");
    }
    if (target == scen::ScenTarget::all &&
        (effect != FaultEffect::failStop || usesTrace())) {
        fatal("fault model: machine-wide processes are fail-stop "
              "only (", describe(), ")");
    }
    if (target != scen::ScenTarget::all && nodeA < 0) {
        fatal("fault model: process names no target node (",
              describe(), ")");
    }
    if (target == scen::ScenTarget::link &&
        (nodeB < 0 || nodeB == nodeA)) {
        fatal("fault model: link processes need two distinct nodes (",
              describe(), ")");
    }
    if (usesTrace()) {
        if (!(periodicityUs > 0.0) || !std::isfinite(periodicityUs)) {
            fatal("fault model: trace periodicity must be positive (",
                  describe(), ")");
        }
        double prev = -1.0;
        for (const AvailabilityPoint &pt : trace) {
            if (!(pt.timeUs >= 0.0) || pt.timeUs >= periodicityUs ||
                pt.timeUs <= prev) {
                fatal("fault model: trace times must be strictly "
                      "increasing within [0, periodicity) (",
                      describe(), ")");
            }
            prev = pt.timeUs;
            if (!(pt.value >= 0.0) || pt.value > 1.0 ||
                !std::isfinite(pt.value)) {
                fatal("fault model: trace values are capacity "
                      "fractions in [0, 1] (", describe(), ")");
            }
        }
        return;
    }
    if (!(mtbfUs > 0.0) || !std::isfinite(mtbfUs)) {
        fatal("fault model: mtbf_us must be positive and finite (",
              describe(), ")");
    }
    if (effect != FaultEffect::failStop &&
        (!(mttrUs > 0.0) || !std::isfinite(mttrUs))) {
        fatal("fault model: recoverable processes need a positive "
              "and finite mttr_us (", describe(), ")");
    }
    if (effect == FaultEffect::degrade &&
        (!(degradeFactor > 0.0) || degradeFactor >= 1.0)) {
        fatal("fault model: degrade factors lie in (0, 1) (",
              describe(), ")");
    }
}

void
FaultModel::validate() const
{
    if (!(horizonUs >= 0.0) || !fitsClockUs(horizonUs)) {
        fatal("fault model: horizon_us must be non-negative and fit "
              "the 64-bit nanosecond clock, got ", horizonUs);
    }
    for (const FaultProcess &proc : processes)
        proc.validate();
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
    model.validate(); // before fromUs reads horizon_us
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

} // namespace

std::vector<AvailabilityPoint>
readAvailabilityTrace(std::istream &in, const std::string &source,
                      double &periodicity_us)
{
    std::vector<AvailabilityPoint> trace;
    periodicity_us = 0.0;
    LineReader line(in, source);
    line.forEachLine([&] {
        if (line[0] == "PERIODICITY") {
            // A trace has one period: a second header is a typo.
            line.once(line[0]);
            line.expectTokens(2, "PERIODICITY <us>");
            periodicity_us =
                parseNumber<double>(line[1], Sign::positive);
            return;
        }
        if (line.seenLine("PERIODICITY") == 0)
            fatal("availability trace must start with "
                  "`PERIODICITY <us>`");
        line.expectTokens(2, "<time_us> <value>");
        // FaultProcess::validate()'s checks, made here so that the
        // error names this line.
        const double time =
            parseNumber<double>(line[0], Sign::nonNegative);
        const double value =
            parseNumber<double>(line[1], Sign::nonNegative);
        if (time >= periodicity_us) {
            fatal("time ", line[0], " is not inside the period [0, ",
                  periodicity_us, ")");
        }
        if (!trace.empty() && time <= trace.back().timeUs) {
            fatal("time ", line[0], " is not after the previous "
                  "point's");
        }
        if (value > 1.0) {
            fatal("value ", line[1], " is not a capacity fraction in "
                  "[0, 1]");
        }
        trace.push_back({time, value});
    });
    line.check([&] {
        if (trace.empty())
            fatal("availability trace has no points");
    });
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
    LineReader line(in, source);
    line.forEachLine([&] {
        if (line[0] != "process") {
            const auto [key, value] = line.keyValue();
            if (key == "seed") {
                model.seed = parseNumber<std::uint64_t>(value);
            } else if (key == "horizon_us") {
                model.horizonUs =
                    parseNumber<double>(value, Sign::nonNegative);
            } else {
                fatal("unknown fault model key '", key,
                      "' (expected seed or horizon_us)");
            }
            return;
        }
        FaultProcess proc;
        std::size_t pos = 1;
        scen::readScope(line, pos, proc.target, proc.nodeA, proc.nodeB);
        const std::string &effect = line.token(pos++, "effect");
        if (effect == "trace") {
            proc.tracePath = line.token(pos++, "trace path");
            proc.trace = readAvailabilityTraceFile(
                joinDir(dir, proc.tracePath), proc.periodicityUs);
        } else if (effect == "fail-stop") {
            proc.effect = FaultEffect::failStop;
        } else if (effect == "stall") {
            proc.effect = FaultEffect::stall;
        } else if (effect == "degrade") {
            proc.effect = FaultEffect::degrade;
            proc.degradeFactor =
                parseNumber<double>(line.token(pos++, "degrade factor"));
        } else {
            fatal("unknown process effect '", effect,
                  "' (expected fail-stop, stall, degrade or trace)");
        }
        const std::size_t first_key = pos;
        while (pos < line.size()) {
            const std::string &key = line[pos++];
            if (key != "mtbf_us" && key != "mttr_us") {
                fatal("unknown process key '", key,
                      "' (expected mtbf_us or mttr_us)");
            }
            for (std::size_t k = first_key; k + 1 < pos; k += 2) {
                if (line[k] == key)
                    fatal("duplicate process key '", key, "'");
            }
            (key == "mtbf_us" ? proc.mtbfUs : proc.mttrUs) =
                parseNumber<double>(line.token(pos++, "value"));
        }
        proc.validate();
        model.processes.push_back(std::move(proc));
    });
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
