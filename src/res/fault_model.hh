/**
 * @file
 * Stochastic fault models expanded into ordinary scenarios.
 *
 * The scenario engine (src/scen/) replays a fixed timestamped event
 * list; resilience studies need *distributions* of such lists —
 * "links fail every 5 ms on average and take 200 us to repair", run
 * over many seeds. A res::FaultModel describes seeded per-node and
 * per-link failure processes, each either
 *
 *  - an exponential renewal process (MTBF/MTTR means, the classic
 *    memoryless failure model), or
 *  - a deterministic availability state trace in the classic SimGrid
 *    shape (PERIODICITY header + time/value pairs, repeating until
 *    the horizon),
 *
 * and generateScenario() expands a model into an ordinary
 * scen::ScenarioConfig *before* the run. The engine never sees a
 * random number: per-seed determinism, TSAN-cleanliness and the
 * bit-identical scenario-free guarantee all carry over unchanged
 * from PR 6. Generation draws through util/counter_rng.hh with one
 * substream per process, so the expansion is order-independent and
 * reproducible across thread counts — sweep lane 7 expanding cell
 * (rate, seed) gets exactly the bytes lane 0 would have.
 *
 * Model file format (referenced from platform files via
 * `fault_model_file = ...`):
 *
 *     # defaults for generateScenario(model)
 *     seed = 42
 *     horizon_us = 100000
 *     # one line per failure process
 *     process node 3 fail-stop mtbf_us 5000
 *     process node 2 stall mtbf_us 4000 mttr_us 150
 *     process link 0 7 degrade 0.25 mtbf_us 3000 mttr_us 500
 *     process link 1 2 trace link12.trace
 *     # machine-wide crash (fail-stop only; drives the global
 *     # restore level of two-level checkpointing)
 *     process all fail-stop mtbf_us 50000
 *
 * The seed is any unsigned 64-bit integer. Both formats below read
 * through util/line_reader.hh: its comment rule, and every error led
 * by the file and line. A key repeated in the file is fatal naming
 * its first line, as is a key repeated within one process line; each
 * process is checked on its own line.
 */

#ifndef OVLSIM_RES_FAULT_MODEL_HH
#define OVLSIM_RES_FAULT_MODEL_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "scen/scenario.hh"
#include "util/types.hh"

namespace ovlsim::res {

/** What a process does to its target when it fires. */
enum class FaultEffect : std::uint8_t {
    /** Fail-stop: terminate (or, with checkpointing, roll back). */
    failStop,
    /** Freeze traffic over the target until repair. */
    stall,
    /** Scale the target's bandwidth down until repair. */
    degrade,
};

const char *faultEffectName(FaultEffect effect);

/** One point of an availability state trace: at `timeUs` into the
 * period the target's capacity fraction becomes `value` (1 = fully
 * up, 0 = down, in between = degraded). */
struct AvailabilityPoint
{
    double timeUs = 0.0;
    double value = 1.0;

    bool operator==(const AvailabilityPoint &) const = default;
};

/**
 * One failure process over one node, one directed link, or the whole
 * machine. Either an exponential MTBF/MTTR renewal process (trace
 * empty) or a periodic availability trace (trace set; mtbf/mttr/
 * effect unused except that value-0 intervals always stall —
 * availability traces have no fail-stop notion).
 */
struct FaultProcess
{
    /** node (nodeA's NIC links), link (the nodeA->nodeB route's
     * fabric links), or all (machine-wide; fail-stop only — an
     * `all` crash is what the global level of two-level
     * checkpointing recovers from). */
    scen::ScenTarget target = scen::ScenTarget::node;
    int nodeA = -1;
    int nodeB = -1;

    FaultEffect effect = FaultEffect::failStop;
    /** Capacity multiplier while a degrade fault is active. */
    double degradeFactor = 0.5;
    /** Mean time between failures / to repair, microseconds. */
    double mtbfUs = 0.0;
    double mttrUs = 0.0;

    /** Availability trace (empty for an exponential process). */
    std::string tracePath;
    double periodicityUs = 0.0;
    std::vector<AvailabilityPoint> trace;

    bool usesTrace() const { return !trace.empty(); }

    /** Range checks; throws FatalError on nonsense values. */
    void validate() const;

    /** One-line description for errors and reports. */
    std::string describe() const;

    bool operator==(const FaultProcess &) const = default;
};

/** A seeded bag of failure processes plus generation defaults. */
struct FaultModel
{
    /** Where the model came from (round-trips the platform-file
     * `fault_model_file` key; empty for programmatic models). */
    std::string sourcePath;
    /** Default seed for generateScenario(model). */
    std::uint64_t seed = 1;
    /** Default generation horizon for generateScenario(model). */
    double horizonUs = 0.0;
    std::vector<FaultProcess> processes;

    bool empty() const { return processes.empty(); }

    /** Range checks; throws FatalError on nonsense values. */
    void validate() const;

    bool operator==(const FaultModel &) const = default;
};

/**
 * Expand a fault model into a concrete scenario: draw every
 * process's fault/repair instants over [0, horizon) and emit the
 * matching degrade/fail/recover events. Pure function of (model,
 * seed, horizon) — process i draws from CounterRng(seed, i), so the
 * result is bit-identical on every host, thread and call order.
 * Repairs always land, even past the horizon, so generated stalls
 * and degrades never wedge a replay that outlives the horizon; only
 * new faults are cut off. Fail-stop processes emit every renewal up
 * to the horizon — without checkpointing only the first one matters
 * (it terminates the replay), but under checkpoint/restart each
 * renewal triggers its own rollback, which is what Daly-style
 * optimal-interval statistics are made of.
 */
scen::ScenarioConfig generateScenario(const FaultModel &model,
                                      std::uint64_t seed,
                                      SimTime horizon);

/** Expansion with the model's own seed and horizon defaults. */
scen::ScenarioConfig generateScenario(const FaultModel &model);

/**
 * Daly's first-order optimal checkpoint interval: the compute time
 * between checkpoints that minimises expected runtime under
 * exponential failures with mean `mtbf_us` and a per-checkpoint
 * cost of `checkpoint_cost_us`,
 *
 *     tau* = sqrt(2 * C * M) - C      (valid for M >= C / 2).
 *
 * Below the validity bound the machine fails faster than it can
 * checkpoint and the formula's guard returns the degenerate
 * sqrt(2*C*M) instead of a negative interval. Used by the
 * protocol-comparison sweep (core::protocolSweep) as the analytic
 * prediction next to the swept optimum.
 */
double dalyInterval(double mtbf_us, double checkpoint_cost_us);

/**
 * Parse the model format above. `source` names the stream in parse
 * errors (file name + line number). Trace paths are resolved
 * relative to `dir` when relative (pass the model file's directory;
 * empty = current directory).
 */
FaultModel readFaultModel(std::istream &in,
                          const std::string &source = "fault model",
                          const std::string &dir = "");

/** Parse a model file; remembers `path` as sourcePath. */
FaultModel readFaultModelFile(const std::string &path);

/** Emit a model in the readFaultModel() format (round-trips;
 * availability traces are referenced by path, not inlined). */
void writeFaultModel(const FaultModel &model, std::ostream &out);

/**
 * Parse a SimGrid-shaped availability trace:
 *
 *     PERIODICITY 1000
 *     0   1.0
 *     500 0.5
 *     700 0
 *
 * Times are microseconds into the period, strictly increasing and
 * below the periodicity; values are capacity fractions in [0, 1].
 * The pattern repeats every PERIODICITY microseconds. A second
 * PERIODICITY line is a FatalError naming its line and the first.
 * The points are range-checked by FaultProcess::validate(), on the
 * model line that references the trace.
 */
std::vector<AvailabilityPoint>
readAvailabilityTrace(std::istream &in, const std::string &source,
                      double &periodicity_us);

std::vector<AvailabilityPoint>
readAvailabilityTraceFile(const std::string &path,
                          double &periodicity_us);

} // namespace ovlsim::res

#endif // OVLSIM_RES_FAULT_MODEL_HH
