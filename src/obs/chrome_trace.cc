#include "obs/chrome_trace.hh"

#include <algorithm>
#include <cstdio>

#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim::obs {

namespace {

/** Simulated pid and host pid of the two event worlds. */
constexpr int simPid = 0;
constexpr int hostPid = 1;

double
usOf(SimTime t)
{
    return static_cast<double>(t.ns()) / 1e3;
}

void
appendMeta(std::string &out, int pid, const char *what,
           const std::string &name, int tid)
{
    out += strformat("{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,"
                     "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                     what, pid, tid, name.c_str());
}

void
appendDuration(std::string &out, int pid, int tid,
               const char *name, double begin_us, double end_us)
{
    out += strformat("{\"name\":\"%s\",\"ph\":\"B\",\"pid\":%d,"
                     "\"tid\":%d,\"ts\":%.3f},\n",
                     name, pid, tid, begin_us);
    out += strformat("{\"name\":\"%s\",\"ph\":\"E\",\"pid\":%d,"
                     "\"tid\":%d,\"ts\":%.3f},\n",
                     name, pid, tid, end_us);
}

void
appendInstant(std::string &out, int pid, int tid, const char *name,
              double ts_us)
{
    out += strformat("{\"name\":\"%s\",\"ph\":\"i\",\"pid\":%d,"
                     "\"tid\":%d,\"ts\":%.3f,\"s\":\"p\"},\n",
                     name, pid, tid, ts_us);
}

/** Minimal JSON string escape for span names. */
std::string
escaped(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            // Control characters never appear in span labels; keep
            // the escape table to what the emitters can produce.
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
chromeTraceJson(const sim::Timeline &timeline,
                std::span<const LaneSpan> host_spans)
{
    std::string out;
    out += "{\n\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";

    const int nranks = timeline.ranks();
    // The machine track hosts machine-wide instants (checkpoints,
    // rollback cuts) one tid past the last rank, so per-track
    // timestamp monotonicity of the rank B/E streams is preserved.
    const int machineTid = nranks;

    appendMeta(out, simPid, "process_name", "simulated time", 0);
    for (Rank r = 0; r < nranks; ++r) {
        appendMeta(out, simPid, "thread_name",
                   strformat("rank %d", r), static_cast<int>(r));
    }
    if (!timeline.checkpoints().empty() || nranks > 0)
        appendMeta(out, simPid, "thread_name", "machine",
                   machineTid);

    // Per-rank state intervals, append order == time order, one
    // B/E pair per interval. Idle gaps stay gaps.
    std::vector<SimTime> rollbackCuts;
    for (Rank r = 0; r < nranks; ++r) {
        for (const sim::StateInterval &iv : timeline.intervals(r)) {
            if (iv.state == sim::RankState::idle)
                continue;
            appendDuration(out, simPid, static_cast<int>(r),
                           sim::rankStateName(iv.state),
                           usOf(iv.begin), usOf(iv.end));
            if (iv.state == sim::RankState::restart)
                rollbackCuts.push_back(iv.begin);
        }
    }

    // Machine-wide instants. Every surviving rank records the same
    // restart window, so the cuts dedup to one instant per
    // rollback.
    std::sort(rollbackCuts.begin(), rollbackCuts.end());
    rollbackCuts.erase(
        std::unique(rollbackCuts.begin(), rollbackCuts.end()),
        rollbackCuts.end());
    std::vector<std::pair<SimTime, const char *>> instants;
    for (const SimTime cut : rollbackCuts)
        instants.emplace_back(cut, "rollback");
    for (const sim::CheckpointMark &mark : timeline.checkpoints()) {
        instants.emplace_back(
            mark.at, mark.global ? "checkpoint (global)"
                                 : "checkpoint");
    }
    std::sort(instants.begin(), instants.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (const auto &[at, name] : instants)
        appendInstant(out, simPid, machineTid, name, usOf(at));

    // Host-time campaign spans, one track per lane, X events.
    if (!host_spans.empty()) {
        appendMeta(out, hostPid, "process_name", "host time", 0);
        int maxLane = 0;
        for (const LaneSpan &span : host_spans) {
            if (span.lane > maxLane)
                maxLane = span.lane;
        }
        for (int lane = 0; lane <= maxLane; ++lane) {
            appendMeta(out, hostPid, "thread_name",
                       strformat("lane %d", lane), lane);
        }
        for (const LaneSpan &span : host_spans) {
            out += strformat(
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f},\n",
                escaped(span.name).c_str(), hostPid, span.lane,
                static_cast<double>(span.beginNs) / 1e3,
                static_cast<double>(span.endNs - span.beginNs) /
                    1e3);
        }
    }

    // Strip the trailing ",\n" of the last event (valid JSON has
    // no trailing comma).
    if (out.size() >= 2 && out[out.size() - 2] == ',')
        out.erase(out.size() - 2, 1);
    out += "]\n}\n";
    return out;
}

void
writeChromeTrace(const std::string &path,
                 const sim::Timeline &timeline,
                 std::span<const LaneSpan> host_spans)
{
    const std::string json = chromeTraceJson(timeline, host_spans);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        fatal("writeChromeTrace: cannot open ", path);
    const std::size_t written =
        std::fwrite(json.data(), 1, json.size(), f);
    const int rc = std::fclose(f);
    if (written != json.size() || rc != 0)
        fatal("writeChromeTrace: short write to ", path);
}

} // namespace ovlsim::obs
