/**
 * @file
 * Per-rank traces and whole-application trace sets.
 */

#ifndef OVLSIM_TRACE_TRACE_HH
#define OVLSIM_TRACE_TRACE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "util/types.hh"

namespace ovlsim::trace {

/**
 * The ordered record stream of one simulated process.
 */
class RankTrace
{
  public:
    RankTrace() = default;
    explicit RankTrace(Rank rank) : rank_(rank) {}

    Rank rank() const { return rank_; }

    /** Append a record at the end of the stream. */
    void
    append(Record rec)
    {
        records_.push_back(std::move(rec));
    }

    const std::vector<Record> &records() const { return records_; }
    std::vector<Record> &records() { return records_; }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    /** Sum of all computation-burst instruction counts. */
    Instr totalInstructions() const;

  private:
    Rank rank_ = 0;
    std::vector<Record> records_;
};

/**
 * The complete trace of one application run: one RankTrace per
 * process plus the metadata needed to replay it (application name and
 * the MIPS rate observed in the real run, which converts instruction
 * counts into time on the nominal platform).
 */
class TraceSet
{
  public:
    TraceSet() = default;

    /** Create an empty trace set with `ranks` empty rank traces. */
    TraceSet(std::string name, int ranks, double mips = 1000.0);

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** MIPS rate observed in the traced run (instructions / us). */
    double mips() const { return mips_; }
    void setMips(double mips) { mips_ = mips; }

    int ranks() const { return static_cast<int>(ranks_.size()); }

    const RankTrace &rankTrace(Rank r) const;
    RankTrace &rankTrace(Rank r);

    const std::vector<RankTrace> &all() const { return ranks_; }
    std::vector<RankTrace> &all() { return ranks_; }

    /** Total records across all ranks. */
    std::size_t totalRecords() const;

    /** Total point-to-point payload bytes (counted on send side). */
    Bytes totalSentBytes() const;

    /** Total point-to-point message count (send side). */
    std::size_t totalMessages() const;

  private:
    std::string name_ = "unnamed";
    double mips_ = 1000.0;
    std::vector<RankTrace> ranks_;
};

} // namespace ovlsim::trace

#endif // OVLSIM_TRACE_TRACE_HH
