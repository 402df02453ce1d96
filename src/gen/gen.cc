#include "gen.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "trace/link.hh"
#include "util/counter_rng.hh"
#include "util/logging.hh"
#include "util/mathutil.hh"

namespace ovlsim::gen {

namespace {

using trace::CollOp;
using trace::CpuBurst;
using trace::CollectiveRec;
using trace::invalidMessageId;
using trace::MessageId;
using trace::RecvRec;
using trace::SendRec;

// Stream salts: one independent CounterRng address space per
// consumer, so families never share or steal each other's draws.
constexpr std::uint64_t saltBurst = 0x67656e2d62757273ULL;
constexpr std::uint64_t saltFanIn = 0x67656e2d66616e69ULL;
constexpr std::uint64_t saltChurn = 0x67656e2d63687572ULL;
constexpr std::uint64_t saltOps = 0x67656e2d6f707321ULL;

// Tags per family; all far below core/transform.hh's chunkTagBase.
constexpr Tag tagStencilBase = 1; // + 2*axis + phase, axes <= 4
constexpr Tag tagRequest = 16;
constexpr Tag tagReply = 17;
constexpr Tag tagForward = 18;
constexpr Tag tagDhtReply = 19;

/** Burst length scaled by a per-stream jitter draw in [1-j, 1+j]. */
Instr
jittered(Instr base, CounterRng &rng, double jitter)
{
    if (jitter <= 0.0 || base == 0)
        return base;
    const double f = rng.nextDouble(1.0 - jitter, 1.0 + jitter);
    return static_cast<Instr>(
        std::llround(static_cast<double>(base) * f));
}

/** Uniform [0, 1) from a random-access draw (53 mantissa bits). */
double
unitDouble(std::uint64_t draw)
{
    return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

// -- stencil ---------------------------------------------------------

trace::TraceSet
generateStencil(const WorkloadConfig &config, std::uint64_t seed)
{
    const std::vector<int> grid =
        stencilGridDims(config.ranks, config.stencilDims);
    const auto dims = grid.size();

    trace::TraceSet traces(config.name, config.ranks, config.mips);
    for (Rank r = 0; r < config.ranks; ++r) {
        auto &rt = traces.rankTrace(r);
        auto rng = CounterRng(seed, saltBurst)
                       .substream(static_cast<std::uint64_t>(r));

        // Row-major coordinates of this rank in the process grid.
        std::vector<int> coord(dims);
        {
            int rem = r;
            for (std::size_t d = dims; d-- > 0;) {
                coord[d] = rem % grid[d];
                rem /= grid[d];
            }
        }
        const auto rankOf = [&](const std::vector<int> &co) {
            int acc = 0;
            for (std::size_t d = 0; d < dims; ++d)
                acc = acc * grid[d] + co[d];
            return static_cast<Rank>(acc);
        };

        for (int iter = 0; iter < config.iterations; ++iter) {
            rt.append(CpuBurst{jittered(config.computePerIteration,
                                        rng,
                                        config.computeJitter)});
            // Per axis, two parity phases of disjoint (c, c+1)
            // pairs on a non-periodic grid; the low member sends
            // first, the high member receives first, so every
            // blocking send faces a posted receive (deadlock-free
            // under eager and rendezvous alike).
            for (std::size_t axis = 0; axis < dims; ++axis) {
                for (int phase = 0; phase < 2; ++phase) {
                    const int cx = coord[axis];
                    const Tag tag = tagStencilBase +
                        static_cast<Tag>(2 * axis) + phase;
                    std::vector<int> co = coord;
                    if (cx % 2 == phase && cx + 1 < grid[axis]) {
                        co[axis] = cx + 1;
                        const Rank peer = rankOf(co);
                        rt.append(SendRec{peer, tag,
                                          config.haloBytes,
                                          invalidMessageId});
                        rt.append(RecvRec{peer, tag,
                                          config.haloBytes,
                                          invalidMessageId});
                    } else if (cx % 2 != phase && cx > 0) {
                        co[axis] = cx - 1;
                        const Rank peer = rankOf(co);
                        rt.append(RecvRec{peer, tag,
                                          config.haloBytes,
                                          invalidMessageId});
                        rt.append(SendRec{peer, tag,
                                          config.haloBytes,
                                          invalidMessageId});
                    }
                }
            }
        }
    }
    return traces;
}

// -- ml-training -----------------------------------------------------

trace::TraceSet
generateMlTraining(const WorkloadConfig &config, std::uint64_t seed)
{
    const int buckets = config.gradientBuckets;
    trace::TraceSet traces(config.name, config.ranks, config.mips);
    for (Rank r = 0; r < config.ranks; ++r) {
        auto &rt = traces.rankTrace(r);
        auto rng = CounterRng(seed, saltBurst)
                       .substream(static_cast<std::uint64_t>(r));
        for (int step = 0; step < config.iterations; ++step) {
            for (int b = 0; b < buckets; ++b) {
                // Interleave each gradient bucket's allreduce with
                // its share of the step's compute; the remainders
                // ride on the last bucket so totals are exact.
                Instr instr = config.stepInstr /
                    static_cast<Instr>(buckets);
                Bytes bytes = config.gradientBytes /
                    static_cast<Bytes>(buckets);
                if (b == buckets - 1) {
                    instr += config.stepInstr %
                        static_cast<Instr>(buckets);
                    bytes += config.gradientBytes %
                        static_cast<Bytes>(buckets);
                }
                rt.append(CpuBurst{jittered(
                    instr, rng, config.computeJitter)});
                rt.append(CollectiveRec{CollOp::allReduce, bytes,
                                        bytes, 0});
            }
        }
    }
    return traces;
}

// -- fan-in ----------------------------------------------------------

trace::TraceSet
generateFanIn(const WorkloadConfig &config, std::uint64_t seed)
{
    const int servers = config.servers;
    const Rank firstClient = static_cast<Rank>(servers);

    // Both endpoints of every request derive its routing and reply
    // size from the same addressed stream, so channel byte flows
    // agree by construction.
    const auto requestRng = [&](Rank client, int round) {
        return CounterRng(seed, saltFanIn)
            .substream(static_cast<std::uint64_t>(client))
            .substream(static_cast<std::uint64_t>(round));
    };
    const auto serverOf = [&](Rank client, int round, int j) {
        return static_cast<Rank>(
            requestRng(client, round)
                .at(static_cast<std::uint64_t>(2 * j)) %
            static_cast<std::uint64_t>(servers));
    };
    const auto replySizeOf = [&](Rank client, int round, int j) {
        // The request mix: one in four replies is a 4x "large"
        // response, the rest are the base size.
        const auto draw = requestRng(client, round)
                              .at(static_cast<std::uint64_t>(
                                  2 * j + 1));
        return draw % 4 == 0 ? config.replyBytes * 4
                             : config.replyBytes;
    };

    trace::TraceSet traces(config.name, config.ranks, config.mips);
    for (int round = 0; round < config.iterations; ++round) {
        // Clients: compute, request, block on the reply.
        for (Rank c = firstClient; c < config.ranks; ++c) {
            auto &rt = traces.rankTrace(c);
            for (int j = 0; j < config.requestsPerClient; ++j) {
                const Rank s = serverOf(c, round, j);
                rt.append(CpuBurst{config.clientInstr});
                rt.append(SendRec{s, tagRequest,
                                  config.requestBytes,
                                  invalidMessageId});
                rt.append(RecvRec{s, tagReply,
                                  replySizeOf(c, round, j),
                                  invalidMessageId});
            }
        }
        // Servers: handle requests in lexicographic
        // (request index, client) order — a topological order of
        // the round's message dependencies, hence deadlock-free.
        for (Rank s = 0; s < firstClient; ++s) {
            auto &rt = traces.rankTrace(s);
            for (int j = 0; j < config.requestsPerClient; ++j) {
                for (Rank c = firstClient; c < config.ranks; ++c) {
                    if (serverOf(c, round, j) != s)
                        continue;
                    rt.append(RecvRec{c, tagRequest,
                                      config.requestBytes,
                                      invalidMessageId});
                    rt.append(CpuBurst{config.serverInstr});
                    rt.append(SendRec{c, tagReply,
                                      replySizeOf(c, round, j),
                                      invalidMessageId});
                }
            }
        }
    }
    return traces;
}

// -- dht -------------------------------------------------------------

trace::TraceSet
generateDht(const WorkloadConfig &config, std::uint64_t seed)
{
    const int n_nodes = config.ranks;
    trace::TraceSet traces(config.name, config.ranks, config.mips);

    for (int round = 0; round < config.iterations; ++round) {
        // Churn: per-(round, node) Bernoulli live-set draw.
        std::vector<char> active(
            static_cast<std::size_t>(n_nodes));
        int active_count = 0;
        const auto churnRng = CounterRng(seed, saltChurn)
                                  .substream(static_cast<
                                             std::uint64_t>(round));
        for (int n = 0; n < n_nodes; ++n) {
            active[static_cast<std::size_t>(n)] =
                unitDouble(churnRng.at(
                    static_cast<std::uint64_t>(n))) >=
                config.churnProbability;
            active_count += active[static_cast<std::size_t>(n)];
        }
        // A near-empty round has nobody to talk to; skip its
        // operations (deterministically — the draw above decided).
        if (active_count < 2)
            continue;

        const auto nextActive = [&](int from) {
            int t = ((from % n_nodes) + n_nodes) % n_nodes;
            while (!active[static_cast<std::size_t>(t)])
                t = (t + 1) % n_nodes;
            return static_cast<Rank>(t);
        };

        // Operations in global (node, op) order; per-rank streams
        // are projections of this single linearization, i.e. a
        // serial schedule — replay cannot deadlock.
        for (int n = 0; n < n_nodes; ++n) {
            if (!active[static_cast<std::size_t>(n)])
                continue;
            const auto opRng =
                CounterRng(seed, saltOps)
                    .substream(
                        static_cast<std::uint64_t>(round))
                    .substream(static_cast<std::uint64_t>(n));
            for (int j = 0; j < config.opsPerRound; ++j) {
                const bool is_store =
                    unitDouble(opRng.at(
                        static_cast<std::uint64_t>(2 * j))) <
                    config.storeFraction;
                const Rank target = nextActive(static_cast<int>(
                    opRng.at(static_cast<std::uint64_t>(
                        2 * j + 1)) %
                    static_cast<std::uint64_t>(n_nodes)));

                traces.rankTrace(n).append(
                    CpuBurst{config.hopInstr});
                if (target == n)
                    continue; // local hit, no traffic

                // Chord-style route: the binary decomposition of
                // the ring distance, largest jumps first; inactive
                // intermediates are skipped (messages go directly
                // between consecutive live path nodes).
                std::vector<Rank> hops{static_cast<Rank>(n)};
                const int dist = (target - n + n_nodes) % n_nodes;
                int cur = n;
                for (int bit = 30; bit >= 0; --bit) {
                    if ((dist & (1 << bit)) == 0)
                        continue;
                    cur = (cur + (1 << bit)) % n_nodes;
                    if (cur != target &&
                        active[static_cast<std::size_t>(cur)]) {
                        hops.push_back(static_cast<Rank>(cur));
                    }
                }
                hops.push_back(target);

                const Bytes fwd_bytes = is_store
                    ? config.keyBytes + config.valueBytes
                    : config.keyBytes;
                const Bytes reply_bytes =
                    is_store ? Bytes(16) : config.valueBytes;

                for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
                    traces.rankTrace(hops[i]).append(
                        SendRec{hops[i + 1], tagForward,
                                fwd_bytes, invalidMessageId});
                    traces.rankTrace(hops[i + 1]).append(
                        RecvRec{hops[i], tagForward, fwd_bytes,
                                invalidMessageId});
                    traces.rankTrace(hops[i + 1]).append(
                        CpuBurst{config.hopInstr});
                }
                traces.rankTrace(target).append(
                    SendRec{static_cast<Rank>(n), tagDhtReply,
                            reply_bytes, invalidMessageId});
                traces.rankTrace(n).append(
                    RecvRec{target, tagDhtReply, reply_bytes,
                            invalidMessageId});
            }
        }
    }
    return traces;
}

// -- overlap synthesis -----------------------------------------------

/**
 * Synthesize per-message overlap metadata for a linked trace set:
 * linear production across the sender's [previous blocking record,
 * send] compute window and linear consumption across the receiver's
 * [recv, next blocking record] window — the tracer's "ideal"
 * profile, satisfying core/transform.hh's invariants (sendInstr is
 * the sender's exact position at the Send record, block instants
 * clamped inside their windows) by construction.
 */
trace::OverlapSet
synthesizeOverlap(const trace::TraceSet &traces)
{
    struct SendSide
    {
        Instr sendInstr = 0;
        Instr prodBegin = 0;
        Rank src = 0;
        Rank dst = 0;
        Tag tag = 0;
        Bytes bytes = 0;
    };
    struct RecvSide
    {
        Instr recvInstr = 0;
        Instr consEnd = 0;
    };
    std::map<MessageId, SendSide> sends;
    std::map<MessageId, RecvSide> recvs;

    for (const auto &rt : traces.all()) {
        const auto &recs = rt.records();

        // Absolute instr position at each record (running sum of
        // burst lengths), plus the end-of-trace position.
        std::vector<Instr> pos(recs.size() + 1);
        Instr p = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            pos[i] = p;
            if (const auto *b = std::get_if<CpuBurst>(&recs[i]))
                p += b->instructions;
        }
        pos[recs.size()] = p;

        // Position of the next blocking record strictly after i
        // (end of trace when none): the consumption window bound.
        std::vector<Instr> next_block(recs.size());
        Instr nb = p;
        for (std::size_t i = recs.size(); i-- > 0;) {
            next_block[i] = nb;
            if (trace::isBlockingRecord(recs[i]))
                nb = pos[i];
        }

        Instr prev_block = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            if (const auto *s = std::get_if<SendRec>(&recs[i])) {
                sends[s->message] = SendSide{pos[i], prev_block,
                                             rt.rank(), s->dst,
                                             s->tag, s->bytes};
            } else if (const auto *r =
                           std::get_if<RecvRec>(&recs[i])) {
                recvs[r->message] =
                    RecvSide{pos[i], next_block[i]};
            }
            if (trace::isBlockingRecord(recs[i]))
                prev_block = pos[i];
        }
    }

    trace::OverlapSet overlap;
    for (const auto &[id, ss] : sends) {
        const auto it = recvs.find(id);
        if (it == recvs.end() || ss.bytes == 0)
            continue;
        trace::MessageOverlapInfo info;
        info.id = id;
        info.src = ss.src;
        info.dst = ss.dst;
        info.tag = ss.tag;
        info.bytes = ss.bytes;
        info.sendInstr = ss.sendInstr;
        info.recvInstr = it->second.recvInstr;
        info.prodWindowBegin = ss.prodBegin;
        info.consWindowEnd = it->second.consEnd;
        info.blockBytes = tracer::profileBlockSize(
            ss.bytes, tracer::TracerConfig{});
        const auto blocks = static_cast<std::size_t>(
            ceilDiv(ss.bytes, info.blockBytes));
        info.blockLastStore.resize(blocks);
        info.blockFirstLoad.resize(blocks);
        const Instr prod_window = ss.sendInstr - ss.prodBegin;
        const Instr cons_window =
            it->second.consEnd - it->second.recvInstr;
        for (std::size_t b = 0; b < blocks; ++b) {
            // Block b's last store at the (b+1)/blocks point of
            // the production window (the final block completes
            // exactly at the send); its first load at the
            // b/blocks point of the consumption window (the first
            // block is needed right at the receive).
            info.blockLastStore[b] = ss.prodBegin +
                prod_window * static_cast<Instr>(b + 1) /
                    static_cast<Instr>(blocks);
            info.blockFirstLoad[b] = it->second.recvInstr +
                cons_window * static_cast<Instr>(b) /
                    static_cast<Instr>(blocks);
        }
        overlap.add(std::move(info));
    }
    return overlap;
}

} // namespace

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::stencil: return "stencil";
      case WorkloadKind::mlTraining: return "ml-training";
      case WorkloadKind::fanIn: return "fan-in";
      case WorkloadKind::dht: return "dht";
    }
    panic("workloadKindName: bad kind ",
          static_cast<int>(kind));
}

WorkloadKind
workloadKindFromName(const std::string &name)
{
    if (name == "stencil")
        return WorkloadKind::stencil;
    if (name == "ml-training")
        return WorkloadKind::mlTraining;
    if (name == "fan-in")
        return WorkloadKind::fanIn;
    if (name == "dht")
        return WorkloadKind::dht;
    fatal("unknown workload kind '", name,
          "' (expected stencil, ml-training, fan-in or dht)");
}

void
WorkloadConfig::validate() const
{
    const auto reject = [this](const char *key, auto &&...what) {
        fatal("workload '", name, "': key '", key, "' ",
              std::forward<decltype(what)>(what)...);
    };
    if (ranks < 2)
        reject("ranks", "must be at least 2, got ", ranks);
    if (ranks > (1 << 17))
        reject("ranks", "must be at most ", 1 << 17, ", got ",
               ranks);
    if (iterations < 1)
        reject("iterations", "must be at least 1, got ",
               iterations);
    if (!(mips > 0.0) || !std::isfinite(mips))
        reject("mips", "must be a positive finite number, got ",
               mips);

    switch (kind) {
      case WorkloadKind::stencil:
        if (stencilDims < 1 || stencilDims > 4)
            reject("stencil_dims", "must be in [1, 4], got ",
                   stencilDims);
        if (haloBytes == 0)
            reject("halo_bytes", "must be positive");
        if (computeJitter < 0.0 || computeJitter >= 1.0 ||
            !std::isfinite(computeJitter))
            reject("compute_jitter", "must be in [0, 1), got ",
                   computeJitter);
        break;
      case WorkloadKind::mlTraining:
        if (gradientBuckets < 1)
            reject("gradient_buckets", "must be at least 1, got ",
                   gradientBuckets);
        if (gradientBytes <
            static_cast<Bytes>(gradientBuckets))
            reject("gradient_bytes",
                   "must be at least gradient_buckets (",
                   gradientBuckets, "), got ", gradientBytes);
        if (computeJitter < 0.0 || computeJitter >= 1.0 ||
            !std::isfinite(computeJitter))
            reject("compute_jitter", "must be in [0, 1), got ",
                   computeJitter);
        break;
      case WorkloadKind::fanIn:
        if (servers < 1 || servers >= ranks)
            reject("servers", "must be in [1, ranks-1], got ",
                   servers);
        if (requestsPerClient < 1)
            reject("requests_per_client",
                   "must be at least 1, got ", requestsPerClient);
        if (requestBytes == 0)
            reject("request_bytes", "must be positive");
        if (replyBytes == 0)
            reject("reply_bytes", "must be positive");
        break;
      case WorkloadKind::dht:
        if (churnProbability < 0.0 || churnProbability >= 1.0 ||
            !std::isfinite(churnProbability))
            reject("churn_probability", "must be in [0, 1), got ",
                   churnProbability);
        if (storeFraction < 0.0 || storeFraction > 1.0 ||
            !std::isfinite(storeFraction))
            reject("store_fraction", "must be in [0, 1], got ",
                   storeFraction);
        if (opsPerRound < 1)
            reject("ops_per_round", "must be at least 1, got ",
                   opsPerRound);
        if (keyBytes == 0)
            reject("key_bytes", "must be positive");
        if (valueBytes == 0)
            reject("value_bytes", "must be positive");
        break;
    }
}

std::vector<int>
stencilGridDims(int ranks, int dims)
{
    ovlAssert(ranks >= 1 && dims >= 1,
              "stencilGridDims: bad arguments");
    // MPI_Dims_create shape: assign prime factors, largest first,
    // to the currently smallest extent; extents come out as close
    // to the d-th root as the factorization allows.
    std::vector<int> primes;
    int n = ranks;
    for (int p = 2; p * p <= n; ++p) {
        while (n % p == 0) {
            primes.push_back(p);
            n /= p;
        }
    }
    if (n > 1)
        primes.push_back(n);
    std::sort(primes.rbegin(), primes.rend());

    std::vector<int> grid(static_cast<std::size_t>(dims), 1);
    for (const int p : primes)
        *std::min_element(grid.begin(), grid.end()) *= p;
    std::sort(grid.rbegin(), grid.rend());
    return grid;
}

trace::TraceSet
generateTrace(const WorkloadConfig &config, std::uint64_t seed)
{
    config.validate();
    trace::TraceSet traces;
    switch (config.kind) {
      case WorkloadKind::stencil:
        traces = generateStencil(config, seed);
        break;
      case WorkloadKind::mlTraining:
        traces = generateMlTraining(config, seed);
        break;
      case WorkloadKind::fanIn:
        traces = generateFanIn(config, seed);
        break;
      case WorkloadKind::dht:
        traces = generateDht(config, seed);
        break;
    }
    // FIFO-link both endpoints of every message to a shared dense
    // id — the same pairing rule replay uses, so a generator bug
    // that breaks channel pairing is caught right here.
    trace::linkTraceSet(traces, nullptr, nullptr, nullptr);
    return traces;
}

tracer::TraceBundle
generateWorkload(const WorkloadConfig &config, std::uint64_t seed)
{
    tracer::TraceBundle bundle;
    bundle.traces = generateTrace(config, seed);
    bundle.overlap = synthesizeOverlap(bundle.traces);
    return bundle;
}

WorkloadConfig
withRankCount(WorkloadConfig config, int ranks)
{
    // Below two ranks there is no server share to keep (the clamp
    // range [1, ranks - 1] would be empty); validate() names the
    // rank count instead.
    if (config.kind == WorkloadKind::fanIn && ranks >= 2) {
        const double ratio = static_cast<double>(config.servers) /
            static_cast<double>(config.ranks);
        config.servers = std::clamp(
            static_cast<int>(std::lround(
                ratio * static_cast<double>(ranks))),
            1, ranks - 1);
    }
    config.ranks = ranks;
    return config;
}

} // namespace ovlsim::gen
