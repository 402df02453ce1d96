/**
 * @file
 * Chrome trace-event (Perfetto-loadable) JSON export.
 *
 * Two worlds share one trace file:
 *
 *  - Simulated time (pid 0): one track per rank from the replay's
 *    sim::Timeline. Compute/comm/stall/restart intervals become
 *    B/E duration-event pairs (one matched pair per interval, ts
 *    monotone per track), coordinated checkpoints become global
 *    instant events on a "machine" track, and each rollback's
 *    restart window additionally emits a "rollback" instant at its
 *    cut.
 *
 *  - Host time (pid 1): one track per campaign lane from the spans
 *    a campaign records when asked (core::CampaignObs::recordSpans:
 *    the lane runner times each labelled task, e.g. compile,
 *    prepare and per-point replay tasks). Host spans are emitted as
 *    X (complete) events — begin + dur — so arbitrary nesting needs
 *    no pairing discipline.
 *
 * All timestamps are microseconds (the trace-event convention):
 * simulated nanoseconds divided by 1e3, host nanoseconds since the
 * span epoch divided by 1e3. Load the file at ui.perfetto.dev or
 * chrome://tracing.
 */

#ifndef OVLSIM_OBS_CHROME_TRACE_HH
#define OVLSIM_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <span>
#include <string>

#include "sim/timeline.hh"

namespace ovlsim::obs {

/** One named host-time interval on one campaign lane. Times are
 * steady-clock nanoseconds since the campaign's span epoch. */
struct LaneSpan
{
    std::string name;
    int lane = 0;
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
};

/** Render the trace-event JSON document (see file comment). */
std::string
chromeTraceJson(const sim::Timeline &timeline,
                std::span<const LaneSpan> host_spans = {});

/** Write chromeTraceJson() to `path`; FatalError when the file
 * cannot be written. */
void
writeChromeTrace(const std::string &path,
                 const sim::Timeline &timeline,
                 std::span<const LaneSpan> host_spans = {});

} // namespace ovlsim::obs

#endif // OVLSIM_OBS_CHROME_TRACE_HH
