/**
 * @file
 * The tracing tool: turns one VM run into replayable traces.
 *
 * This is the paper's designed tracing tool (Sec. II-B). It leverages
 * the VM's two instrumentation channels — wrapped MPI-like calls and
 * tracked memory activities — to produce, from a single run:
 *
 *  - the original (non-overlapped) Dimemas-style trace: computation
 *    records carrying burst lengths in instructions plus
 *    communication records carrying message parameters, and
 *  - per-message overlap metadata: at a fixed block granularity, the
 *    instruction instant at which every piece of a payload was last
 *    produced before its send and first consumed after its receive,
 *    together with the window bounds used both to clamp measured
 *    points and to synthesize the ideal (sequential) pattern.
 *
 * The overlapped "potential" traces themselves are synthesized later
 * by the core transformation (core/transform.hh) from exactly this
 * bundle, which mirrors the paper's tool emitting several Dimemas
 * traces from one instrumented execution.
 */

#ifndef OVLSIM_TRACER_TRACER_HH
#define OVLSIM_TRACER_TRACER_HH

#include <cstddef>
#include <string>

#include "trace/overlap_info.hh"
#include "trace/trace.hh"
#include "vm/vm.hh"

namespace ovlsim::tracer {

/** Tracing-tool configuration. */
struct TracerConfig
{
    /** Application name stored in the trace set. */
    std::string appName = "app";

    /**
     * Average MIPS rate observed in the "real run"; scales
     * instruction counts into time at replay (paper Sec. II-B).
     */
    double mips = 1000.0;

    /** Granularity of the per-buffer store shadow memory. */
    Bytes shadowBlockBytes = 256;

    /** Upper bound on profile blocks recorded per message. */
    std::size_t maxProfileBlocks = 64;
};

/** Everything the tracing tool extracts from one run. */
struct TraceBundle
{
    /** Original (non-overlapped) trace, message ids linked. */
    trace::TraceSet traces;
    /** Fused production/consumption profiles per message. */
    trace::OverlapSet overlap;
};

/**
 * Profile block size used for a message of `bytes` bytes. Both
 * endpoints derive it from the same formula, so sender and receiver
 * profiles always align.
 */
Bytes profileBlockSize(Bytes bytes, const TracerConfig &config);

/**
 * Run `program` on every rank under the tracing tool and return the
 * trace bundle. The trace is checked by trace::validateTraceSet; an
 * invalid one is a FatalError.
 *
 * @param ranks number of simulated MPI processes
 * @param program the application (one entry point, SPMD style)
 * @param config tool configuration
 */
TraceBundle traceApplication(int ranks,
                             const vm::RankProgram &program,
                             const TracerConfig &config = {});

} // namespace ovlsim::tracer

#endif // OVLSIM_TRACER_TRACER_HH
