#include "record.hh"

#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim::trace {

const char *
collOpName(CollOp op)
{
    switch (op) {
      case CollOp::barrier: return "barrier";
      case CollOp::broadcast: return "broadcast";
      case CollOp::reduce: return "reduce";
      case CollOp::allReduce: return "allreduce";
      case CollOp::gather: return "gather";
      case CollOp::allGather: return "allgather";
      case CollOp::scatter: return "scatter";
      case CollOp::allToAll: return "alltoall";
    }
    panic("collOpName: bad CollOp value");
}

CollOp
collOpFromName(const std::string &name)
{
    const std::string s = toLower(name);
    if (s == "barrier") return CollOp::barrier;
    if (s == "broadcast" || s == "bcast") return CollOp::broadcast;
    if (s == "reduce") return CollOp::reduce;
    if (s == "allreduce") return CollOp::allReduce;
    if (s == "gather") return CollOp::gather;
    if (s == "allgather") return CollOp::allGather;
    if (s == "scatter") return CollOp::scatter;
    if (s == "alltoall") return CollOp::allToAll;
    fatal("unknown collective op '", name,
          "' (expected barrier, broadcast, reduce, allreduce, gather, "
          "allgather, scatter or alltoall)");
}

bool
isBlockingRecord(const Record &rec)
{
    return std::holds_alternative<SendRec>(rec) ||
        std::holds_alternative<RecvRec>(rec) ||
        std::holds_alternative<WaitRec>(rec) ||
        std::holds_alternative<WaitAllRec>(rec) ||
        std::holds_alternative<CollectiveRec>(rec);
}

namespace {

struct ToStringVisitor
{
    std::string
    operator()(const CpuBurst &r) const
    {
        return strformat("cpu %llu",
                         static_cast<unsigned long long>(
                             r.instructions));
    }
    std::string
    operator()(const SendRec &r) const
    {
        return strformat("send dst=%d tag=%d bytes=%llu msg=%llu",
                         r.dst, r.tag,
                         static_cast<unsigned long long>(r.bytes),
                         static_cast<unsigned long long>(r.message));
    }
    std::string
    operator()(const ISendRec &r) const
    {
        return strformat(
            "isend dst=%d tag=%d bytes=%llu msg=%llu req=%llu",
            r.dst, r.tag,
            static_cast<unsigned long long>(r.bytes),
            static_cast<unsigned long long>(r.message),
            static_cast<unsigned long long>(r.request));
    }
    std::string
    operator()(const RecvRec &r) const
    {
        return strformat("recv src=%d tag=%d bytes=%llu msg=%llu",
                         r.src, r.tag,
                         static_cast<unsigned long long>(r.bytes),
                         static_cast<unsigned long long>(r.message));
    }
    std::string
    operator()(const IRecvRec &r) const
    {
        return strformat(
            "irecv src=%d tag=%d bytes=%llu msg=%llu req=%llu",
            r.src, r.tag,
            static_cast<unsigned long long>(r.bytes),
            static_cast<unsigned long long>(r.message),
            static_cast<unsigned long long>(r.request));
    }
    std::string
    operator()(const WaitRec &r) const
    {
        return strformat("wait req=%llu",
                         static_cast<unsigned long long>(r.request));
    }
    std::string operator()(const WaitAllRec &) const
    {
        return "waitall";
    }
    std::string
    operator()(const CollectiveRec &r) const
    {
        return strformat("%s send=%llu recv=%llu root=%d",
                         collOpName(r.op),
                         static_cast<unsigned long long>(r.sendBytes),
                         static_cast<unsigned long long>(r.recvBytes),
                         r.root);
    }
};

} // namespace

std::string
recordToString(const Record &rec)
{
    return std::visit(ToStringVisitor{}, rec);
}

} // namespace ovlsim::trace
