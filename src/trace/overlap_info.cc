#include "overlap_info.hh"

#include "util/logging.hh"

namespace ovlsim::trace {

void
OverlapSet::add(MessageOverlapInfo info)
{
    ovlAssert(info.id != invalidMessageId,
              "overlap info needs a valid message id");
    ovlAssert(!infos_.count(info.id),
              "duplicate overlap info for message ", info.id);
    infos_.emplace(info.id, std::move(info));
}

const MessageOverlapInfo &
OverlapSet::get(MessageId id) const
{
    const auto it = infos_.find(id);
    if (it == infos_.end())
        panic("no overlap info for message ", id);
    return it->second;
}

} // namespace ovlsim::trace
