/**
 * @file
 * Trace-driven discrete-event replay engine (the Dimemas substitute).
 *
 * The engine executes compiled replay programs (sim/program.hh): the
 * trace's record streams lowered once into a flat instruction stream
 * with pre-packed channel keys, sends pre-paired with their receives
 * (FIFO per channel), pre-linked request registers and pre-resolved
 * collective cost inputs. Replay converts instruction bursts into
 * time via the platform's MIPS rate and resolves MPI semantics
 * (blocking/non-blocking point-to-point with eager and rendezvous
 * protocols, collectives) while transfers contend for the platform's
 * finite buses and per-node links. The result is the application's
 * reconstructed time-behaviour on the configured platform.
 *
 * Entry points:
 *  - simulate(traces, platform) compiles on entry and replays once —
 *    the right call for one-off replays.
 *  - ReplaySession replays many jobs back-to-back, keeping the
 *    engine's arenas (message-slot table, transfer pool, request
 *    registers, event heap) alive between runs so steady-state
 *    replays allocate nothing. Its ReplayProgram overload skips
 *    compilation entirely — the campaign drivers (core/analysis.hh)
 *    compile each trace variant once and replay the shared program
 *    at every sweep point, one session per lane.
 */

#ifndef OVLSIM_SIM_ENGINE_HH
#define OVLSIM_SIM_ENGINE_HH

#include <memory>

#include "sim/platform.hh"
#include "sim/program.hh"
#include "sim/result.hh"
#include "trace/trace.hh"

namespace ovlsim::sim {

/**
 * Replay a trace set on a platform (compile-on-entry convenience
 * wrapper around the ReplayProgram overload).
 *
 * The trace set must be structurally valid: compilation raises
 * FatalError on traces the engine cannot replay (wildcard
 * anyRank/anyTag sentinels, out-of-range peers, disagreeing
 * collective sequences), and replay raises FatalError with a
 * per-rank diagnosis when ranks block forever.
 *
 * @param traces the application traces to replay
 * @param platform the machine to reconstruct the behaviour on
 * @return simulated completion time, per-rank breakdowns and, if
 *     enabled, the full timeline
 */
SimResult simulate(const trace::TraceSet &traces,
                   const PlatformConfig &platform);

/** Replay a pre-compiled program; same contract as simulate(). */
SimResult simulate(const ReplayProgram &program,
                   const PlatformConfig &platform);

/**
 * A reusable replay context.
 *
 * Owns the engine's message-slot table, transfer arena, request
 * registers, event heap and compiled topologies, and replays any
 * number of (program, platform) pairs back-to-back without
 * reallocating them: each run() resets the containers but keeps
 * their capacity.
 * Results are bit-identical to simulate() — a session carries no
 * state between runs other than memory reservations.
 *
 * A session is single-threaded; parallel campaigns use one session
 * per thread (the campaign drivers keep one per lane). One const
 * ReplayProgram may be shared by any number of concurrent sessions.
 */
class ReplaySession
{
  public:
    ReplaySession();
    ~ReplaySession();
    ReplaySession(ReplaySession &&) noexcept;
    ReplaySession &operator=(ReplaySession &&) noexcept;

    /** Compile `traces` and replay; same contract as simulate(). */
    SimResult run(const trace::TraceSet &traces,
                  const PlatformConfig &platform);

    /** Replay a pre-compiled program (the campaign hot path). */
    SimResult run(const ReplayProgram &program,
                  const PlatformConfig &platform);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace ovlsim::sim

#endif // OVLSIM_SIM_ENGINE_HH
