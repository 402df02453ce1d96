#include "trace.hh"

#include "util/logging.hh"

namespace ovlsim::trace {

Instr
RankTrace::totalInstructions() const
{
    Instr total = 0;
    for (const auto &rec : records_) {
        if (const auto *burst = std::get_if<CpuBurst>(&rec))
            total += burst->instructions;
    }
    return total;
}

TraceSet::TraceSet(std::string name, int ranks, double mips)
    : name_(std::move(name)), mips_(mips)
{
    ovlAssert(ranks > 0, "TraceSet needs at least one rank");
    ovlAssert(mips > 0.0, "TraceSet MIPS rate must be positive");
    ranks_.reserve(static_cast<std::size_t>(ranks));
    for (Rank r = 0; r < ranks; ++r)
        ranks_.emplace_back(r);
}

const RankTrace &
TraceSet::rankTrace(Rank r) const
{
    ovlAssert(r >= 0 && r < ranks(), "rank ", r, " out of range");
    return ranks_[static_cast<std::size_t>(r)];
}

RankTrace &
TraceSet::rankTrace(Rank r)
{
    ovlAssert(r >= 0 && r < ranks(), "rank ", r, " out of range");
    return ranks_[static_cast<std::size_t>(r)];
}

std::size_t
TraceSet::totalRecords() const
{
    std::size_t total = 0;
    for (const auto &rt : ranks_)
        total += rt.size();
    return total;
}

Bytes
TraceSet::totalSentBytes() const
{
    Bytes total = 0;
    for (const auto &rt : ranks_) {
        for (const auto &rec : rt.records()) {
            if (const auto *s = std::get_if<SendRec>(&rec))
                total += s->bytes;
            else if (const auto *is = std::get_if<ISendRec>(&rec))
                total += is->bytes;
        }
    }
    return total;
}

std::size_t
TraceSet::totalMessages() const
{
    std::size_t total = 0;
    for (const auto &rt : ranks_) {
        for (const auto &rec : rt.records()) {
            if (std::holds_alternative<SendRec>(rec) ||
                std::holds_alternative<ISendRec>(rec)) {
                ++total;
            }
        }
    }
    return total;
}

} // namespace ovlsim::trace
