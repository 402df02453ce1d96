/**
 * @file
 * Network topology descriptions and the route compiler.
 *
 * The seed platform mirrors Dimemas' machine model: a flat pool of
 * buses plus per-node injection/reception links, so every study can
 * vary only bandwidth, latency and bus count. This module adds real
 * interconnect shapes underneath the replay engine — the versatile-
 * network-model argument of SimGrid and the topology-aware design of
 * large-scale simulation work:
 *
 *  - fat-tree with configurable tapering (an aggregate tree: each
 *    up/down edge stands for all parallel physical links at that
 *    level, with `fatTreeTaper` scaling its capacity relative to
 *    full bisection),
 *  - k-ary torus/mesh with dimension-ordered routing,
 *  - dragonfly (all-to-all router groups joined by one aggregate
 *    global link per group pair).
 *
 * A TopologyConfig is a pure description. compileTopology() lowers it
 * once per (topology, node count) into a CompiledTopology: per-link
 * capacity factors and endpoints plus the small per-kind link-id
 * tables its routing walk needs, O(links) state in all. Routes are
 * not tabulated per node pair; route() derives one on demand from
 * the topology's structure (the SimGrid approach to large
 * platforms), allocation-free, into a caller buffer. The link-level
 * contention model that consumes these routes lives in
 * net/network.hh; each in-flight flow there carries its own hops.
 *
 * Every route is directed and includes a per-node injection link at
 * the source and a reception link at the destination, so NIC
 * contention falls out of the same link-sharing model as switch
 * contention. The flat-bus kind compiles to no links at all: the
 * engine keeps its classic (bit-identical) bus path for it, and the
 * Dimemas bus/out-link/in-link counts only apply there.
 */

#ifndef OVLSIM_NET_TOPOLOGY_HH
#define OVLSIM_NET_TOPOLOGY_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ovlsim::net {

/** Interconnect shapes understood by the route compiler. */
enum class TopologyKind : std::uint8_t {
    /** Dimemas bus pool (the seed model; engine fast path). */
    flatBus,
    /** Tree with per-level tapering of aggregate link capacity. */
    fatTree,
    /** k-ary torus (wrap links) or mesh (no wrap). */
    torus,
    /** Groups of routers, all-to-all locally and globally. */
    dragonfly,
};

/** Stable name of a topology kind (config files, reports). */
const char *topologyKindName(TopologyKind kind);

/** Parse a topology kind name; throws FatalError on garbage. */
TopologyKind topologyKindFromName(const std::string &name);

/** Complete description of one interconnect. */
struct TopologyConfig
{
    TopologyKind kind = TopologyKind::flatBus;

    /**
     * Fat tree: nodes (and switches) per switch port group. The
     * aggregate-tree construction assumes a power-of-two radix;
     * validate() rejects others.
     */
    int fatTreeRadix = 4;

    /**
     * Capacity of a level-l aggregate link relative to full
     * bisection: factor = (radix * taper)^l. 1.0 reproduces a full
     * (non-blocking) fat tree; 0.5 is the classic 2:1 taper per
     * level, concentrating contention toward the root.
     */
    double fatTreeTaper = 1.0;

    /**
     * Torus dimensions, e.g. {4, 4, 2}. Empty means "auto": the
     * compiler picks a near-square 2-D grid covering the node
     * count.
     */
    std::vector<int> torusDims;

    /** True = torus (wrap links); false = mesh. */
    bool torusWrap = true;

    /** Dragonfly groups; 0 means "auto-size to the node count". */
    int dragonflyGroups = 0;

    /** Routers per dragonfly group (all-to-all inside a group). */
    int dragonflyRoutersPerGroup = 2;

    /** Nodes attached to each dragonfly router. */
    int dragonflyNodesPerRouter = 2;

    /**
     * Base capacity of a factor-1.0 link in MB/s; 0 means "inherit
     * the platform's remote bandwidth", which keeps bandwidth
     * sweeps meaningful across topologies.
     */
    double linkBandwidthMBps = 0.0;

    /** Extra one-way latency per hop beyond the first, in us. */
    double hopLatencyUs = 0.0;

    bool isFlat() const { return kind == TopologyKind::flatBus; }

    /** Validate ranges; throws FatalError on nonsense values. */
    void validate() const;

    bool operator==(const TopologyConfig &) const = default;
};

/**
 * A topology lowered into links plus the shape its routes follow.
 *
 * Link capacities are stored as factors relative to the platform's
 * base link bandwidth. Routes are computed per call from per-kind
 * link-id tables (fat tree: host and per-level up/down links; torus:
 * dims, wrap flag and grid links; dragonfly: host, local and global
 * links), so the whole object is O(links). Immutable after
 * compilation; the engine caches one per (topology, node count) and
 * replays any number of platforms against it.
 */
class CompiledTopology
{
  public:
    CompiledTopology() = default;

    int nodes() const { return nodes_; }
    std::uint32_t linkCount() const
    {
        return static_cast<std::uint32_t>(linkFactor_.size());
    }

    /**
     * Upper bound on a route's length in links, from the shape
     * alone (tree height, torus half-extents, the dragonfly's
     * local-global-local walk): size route() buffers with it. A
     * scenario reroute detour can be longer (net/network.hh).
     */
    std::size_t maxRouteLength() const { return maxRoute_; }

    /** Capacity multiplier of a link vs the base bandwidth. */
    double
    linkFactor(std::uint32_t link) const
    {
        return linkFactor_[link];
    }

    /**
     * Vertices of the underlying graph: ids [0, nodes) are the
     * nodes themselves, ids >= nodes are switches/routers. Every
     * link is a directed edge between two vertices, so fault
     * handling can re-resolve routes around a dead link by
     * searching the surviving graph (scen/ reroute semantics).
     */
    std::uint32_t vertexCount() const { return vertices_; }

    /** Source vertex of a directed link. */
    std::uint32_t
    linkFrom(std::uint32_t link) const
    {
        return linkFrom_[link];
    }

    /** Destination vertex of a directed link. */
    std::uint32_t
    linkTo(std::uint32_t link) const
    {
        return linkTo_[link];
    }

    /**
     * True for per-node injection/reception (NIC) links — one
     * endpoint is a node vertex. Fabric links join two switches.
     */
    bool
    isHostLink(std::uint32_t link) const
    {
        return linkFrom_[link] < static_cast<std::uint32_t>(nodes_) ||
            linkTo_[link] < static_cast<std::uint32_t>(nodes_);
    }

    /**
     * Write the link ids a (src, dst) transfer occupies into `out`
     * (room for maxRouteLength() ids) in traversal order: injection
     * link, fabric links, reception link. Returns the written
     * prefix: empty when src == dst (intra-node traffic bypasses
     * the network) and for the flat-bus kind. Allocation-free; the
     * same inputs always yield the same route.
     */
    std::span<const std::uint32_t> route(
        int src, int dst, std::span<std::uint32_t> out) const;

    /** Heap footprint of the compiled tables (cache accounting). */
    std::size_t memoryBytes() const;

  private:
    /** Lowers a TopologyConfig into this (topology.cc). */
    friend class TopologyBuilder;

    /** Per-kind walks behind route(); each returns the length. */
    std::size_t fatTreeRoute(int src, int dst, std::uint32_t *out) const;
    std::size_t torusRoute(int src, int dst, std::uint32_t *out) const;
    std::size_t dragonflyRoute(int src, int dst,
                               std::uint32_t *out) const;

    TopologyKind kind_ = TopologyKind::flatBus;
    int nodes_ = 0;
    std::size_t maxRoute_ = 0;
    std::uint32_t vertices_ = 0;
    std::vector<double> linkFactor_;
    std::vector<std::uint32_t> linkFrom_;
    std::vector<std::uint32_t> linkTo_;
    /** Per-node injection (node -> switch) and reception links. */
    std::vector<std::uint32_t> hostUp_;
    std::vector<std::uint32_t> hostDown_;
    /** Fat tree: radix; dragonfly: routers per group. */
    int radix_ = 0;
    /** Fat tree: up_/down_ hold level l's switches from
     * levelBegin_[l]; each links a switch to its parent. */
    std::vector<std::uint32_t> levelBegin_;
    std::vector<std::uint32_t> up_;
    std::vector<std::uint32_t> down_;
    /** Torus: extents (dim 0 fastest), whether routes may wrap,
     * and the link per (position, dim, dir) at
     * ((pos * dims + dim) * 2 + dir). */
    std::vector<int> dims_;
    bool wrap_ = false;
    std::vector<std::uint32_t> grid_;
    /** Dragonfly: nodes per router, groups, the link from each
     * router to each local router index and per group pair. */
    int perRouter_ = 0;
    int groups_ = 0;
    std::vector<std::uint32_t> local_;
    std::vector<std::uint32_t> global_;
};

/**
 * Lower `config` into the links and routing tables of a machine of
 * `nodes` nodes, in O(links) time and memory. Throws FatalError when
 * the topology cannot host the node count (torus dims or dragonfly
 * sizing too small) — the auto-sized variants (empty torusDims,
 * dragonflyGroups == 0) always fit. Deterministic: equal inputs
 * compile to equal tables, and link ids follow registration order.
 */
CompiledTopology compileTopology(const TopologyConfig &config,
                                 int nodes);

/** Ready-made topology descriptions used by campaigns/examples. */
namespace topologies {

/** The seed flat bus pool (engine fast path). */
TopologyConfig flatBus();

/** Full-bisection fat tree (radix 4). */
TopologyConfig fatTree(int radix = 4);

/** 2:1-per-level tapered fat tree (radix 4). */
TopologyConfig taperedFatTree(int radix = 4, double taper = 0.5);

/** Auto-sized wrapped 2-D torus. */
TopologyConfig torus2d();

/** Auto-sized dragonfly (2 routers/group, 2 nodes/router). */
TopologyConfig dragonfly();

} // namespace topologies

} // namespace ovlsim::net

#endif // OVLSIM_NET_TOPOLOGY_HH
