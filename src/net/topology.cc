#include "topology.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/mathutil.hh"

namespace ovlsim::net {

const char *
topologyKindName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::flatBus:
        return "flat-bus";
      case TopologyKind::fatTree:
        return "fat-tree";
      case TopologyKind::torus:
        return "torus";
      case TopologyKind::dragonfly:
        return "dragonfly";
    }
    return "unknown";
}

TopologyKind
topologyKindFromName(const std::string &name)
{
    if (name == "flat-bus")
        return TopologyKind::flatBus;
    if (name == "fat-tree")
        return TopologyKind::fatTree;
    if (name == "torus")
        return TopologyKind::torus;
    if (name == "dragonfly")
        return TopologyKind::dragonfly;
    fatal("unknown topology name '", name,
          "' (expected flat-bus, fat-tree, torus or dragonfly)");
}

void
TopologyConfig::validate() const
{
    // Written so that NaN fails too: every double must be finite.
    const auto nonNegative = [](const char *key, double v) {
        if (!(v >= 0.0) || !std::isfinite(v)) {
            fatal("topology: ", key,
                  " must be finite and non-negative, got ", v);
        }
    };
    if (kind == TopologyKind::fatTree) {
        if (fatTreeRadix < 2) {
            fatal("topology: fat-tree radix must be at least 2, "
                  "got ", fatTreeRadix);
        }
        if (!isPowerOfTwo(static_cast<std::uint64_t>(fatTreeRadix))) {
            fatal("topology: fat-tree radix must be a power of "
                  "two, got ", fatTreeRadix);
        }
        if (!(fatTreeTaper > 0.0) || !std::isfinite(fatTreeTaper)) {
            fatal("topology: fat_tree_taper must be positive and "
                  "finite, got ", fatTreeTaper);
        }
    }
    if (kind == TopologyKind::torus) {
        for (const int dim : torusDims) {
            if (dim < 1) {
                fatal("topology: torus dimensions must be "
                      "positive, got ", dim);
            }
        }
    }
    if (kind == TopologyKind::dragonfly) {
        if (dragonflyGroups < 0) {
            fatal("topology: dragonfly groups must be >= 0 "
                  "(0 = auto)");
        }
        if (dragonflyRoutersPerGroup < 1 ||
            dragonflyNodesPerRouter < 1) {
            fatal("topology: dragonfly routers/group and "
                  "nodes/router must be positive");
        }
    }
    // link_bandwidth_mbps 0 inherits the platform bandwidth.
    nonNegative("link_bandwidth_mbps", linkBandwidthMBps);
    nonNegative("hop_latency_us", hopLatencyUs);
    if (!fitsClockUs(hopLatencyUs)) {
        fatal("topology: hop_latency_us = ", hopLatencyUs,
              " us does not fit the 64-bit nanosecond clock");
    }
}

/**
 * Lowers one TopologyConfig into a CompiledTopology: registers links
 * with a capacity factor (link ids follow registration order) and
 * fills the per-kind tables that CompiledTopology::route() walks.
 */
class TopologyBuilder
{
  public:
    TopologyBuilder(TopologyKind kind, int nodes)
    {
        topo_.kind_ = kind;
        topo_.nodes_ = nodes;
        topo_.vertices_ = static_cast<std::uint32_t>(nodes);
    }

    CompiledTopology flat() && { return std::move(topo_); }
    CompiledTopology fatTree(const TopologyConfig &config) &&;
    CompiledTopology torus(const TopologyConfig &config) &&;
    CompiledTopology dragonfly(const TopologyConfig &config) &&;

  private:
    /**
     * Register a directed link `from` -> `to`. Vertex ids below the
     * node count denote nodes; callers allocate switch/router
     * vertices at `nodes + k` (see each compiler's vertex scheme).
     */
    std::uint32_t
    addLink(double factor, std::uint32_t from, std::uint32_t to)
    {
        ovlAssert(factor > 0.0, "link factor must be positive");
        topo_.linkFactor_.push_back(factor);
        topo_.linkFrom_.push_back(from);
        topo_.linkTo_.push_back(to);
        if (from + 1 > topo_.vertices_)
            topo_.vertices_ = from + 1;
        if (to + 1 > topo_.vertices_)
            topo_.vertices_ = to + 1;
        return static_cast<std::uint32_t>(topo_.linkFactor_.size() - 1);
    }

    /**
     * Per-node injection/reception links shared by all fabric kinds.
     * `attachOf(n)` names the switch/router vertex node n hangs off;
     * the injection link runs node -> switch, reception the reverse.
     */
    template <typename AttachOf>
    void
    addHostLinks(AttachOf &&attachOf)
    {
        const auto nodes = static_cast<std::size_t>(topo_.nodes_);
        topo_.hostUp_.reserve(nodes);
        topo_.hostDown_.reserve(nodes);
        for (int n = 0; n < topo_.nodes_; ++n) {
            const std::uint32_t node = static_cast<std::uint32_t>(n);
            const std::uint32_t attach = attachOf(n);
            topo_.hostUp_.push_back(addLink(1.0, node, attach));
            topo_.hostDown_.push_back(addLink(1.0, attach, node));
        }
    }

    CompiledTopology topo_;
};

CompiledTopology
TopologyBuilder::fatTree(const TopologyConfig &config) &&
{
    const int nodes = topo_.nodes_;
    const int radix = config.fatTreeRadix;

    // Aggregate tree: level-0 switches attach `radix` nodes each;
    // every `radix` switches of a level share one parent above.
    // Directed up/down links per switch, with level-(l+1) edges
    // carrying factor (radix * taper)^(l+1): taper == 1 reproduces
    // full bisection (an upper link matches the sum of its
    // children), taper < 1 thins the tree toward the root.
    std::vector<int> levelCounts;
    int count = static_cast<int>(
        ceilDiv(static_cast<std::uint64_t>(nodes),
                static_cast<std::uint64_t>(radix)));
    if (count < 1)
        count = 1;
    levelCounts.push_back(count);
    while (levelCounts.back() > 1) {
        levelCounts.push_back(static_cast<int>(
            ceilDiv(static_cast<std::uint64_t>(levelCounts.back()),
                    static_cast<std::uint64_t>(radix))));
    }
    const int levels = static_cast<int>(levelCounts.size());

    // Vertex scheme: level-l switch s lives at nodes + offset(l) + s.
    std::vector<std::uint32_t> levelOffset(
        static_cast<std::size_t>(levels));
    std::uint32_t vertex_cursor = static_cast<std::uint32_t>(nodes);
    for (int l = 0; l < levels; ++l) {
        levelOffset[static_cast<std::size_t>(l)] = vertex_cursor;
        vertex_cursor +=
            static_cast<std::uint32_t>(levelCounts[static_cast<std::size_t>(l)]);
    }
    const auto switchVertex = [&](int l, std::size_t s) {
        return levelOffset[static_cast<std::size_t>(l)] +
            static_cast<std::uint32_t>(s);
    };

    addHostLinks([&](int n) {
        return switchVertex(0, static_cast<std::size_t>(n / radix));
    });

    // Links between level-l switch s and its level-(l+1) parent
    // (absent for the top level) at levelBegin_[l] + s.
    topo_.radix_ = radix;
    topo_.levelBegin_.push_back(0);
    for (int l = 0; l + 1 < levels; ++l) {
        const double factor = std::pow(
            static_cast<double>(radix) * config.fatTreeTaper,
            static_cast<double>(l + 1));
        const auto switches =
            static_cast<std::size_t>(levelCounts[l]);
        for (std::size_t s = 0; s < switches; ++s) {
            const std::uint32_t child = switchVertex(l, s);
            const std::uint32_t parent =
                switchVertex(l + 1,
                             s / static_cast<std::size_t>(radix));
            topo_.up_.push_back(addLink(factor, child, parent));
            topo_.down_.push_back(addLink(factor, parent, child));
        }
        topo_.levelBegin_.push_back(
            static_cast<std::uint32_t>(topo_.up_.size()));
    }
    // At most up to the root and back, plus the two NIC links.
    topo_.maxRoute_ = 2 * static_cast<std::size_t>(levels);
    return std::move(topo_);
}

CompiledTopology
TopologyBuilder::torus(const TopologyConfig &config) &&
{
    const int nodes = topo_.nodes_;
    std::vector<int> dims = config.torusDims;
    if (dims.empty()) {
        // Auto: near-square 2-D grid covering the node count.
        const int side = static_cast<int>(std::ceil(
            std::sqrt(static_cast<double>(nodes))));
        const int rows = static_cast<int>(
            ceilDiv(static_cast<std::uint64_t>(nodes),
                    static_cast<std::uint64_t>(side)));
        dims = {side, rows < 1 ? 1 : rows};
    }
    std::size_t capacity = 1;
    for (const int dim : dims)
        capacity *= static_cast<std::size_t>(dim);
    if (capacity < static_cast<std::size_t>(nodes)) {
        fatal("topology: torus of ", capacity,
              " positions cannot host ", nodes, " nodes");
    }
    const int ndims = static_cast<int>(dims.size());

    // Vertex scheme: the router at grid position p is nodes + p;
    // node n attaches to the router at its own position (p == n).
    const auto routerVertex = [&](std::size_t pos) {
        return static_cast<std::uint32_t>(nodes) +
            static_cast<std::uint32_t>(pos);
    };
    addHostLinks([&](int n) {
        return routerVertex(static_cast<std::size_t>(n));
    });

    // Position of the neighbour one step along `dim` (dir 0 = +,
    // dir 1 = -), with wraparound (meshes never route off the edge,
    // so the wrapped neighbour is merely an unused edge there).
    const auto neighborOf = [&](std::size_t pos, int dim, int dir) {
        std::size_t stride = 1;
        for (int d = 0; d < dim; ++d)
            stride *= static_cast<std::size_t>(
                dims[static_cast<std::size_t>(d)]);
        const std::size_t size = static_cast<std::size_t>(
            dims[static_cast<std::size_t>(dim)]);
        const std::size_t coord = (pos / stride) % size;
        const std::size_t next = dir == 0
            ? (coord + 1) % size
            : (coord + size - 1) % size;
        return pos - coord * stride + next * stride;
    };

    // One router per grid position; per position, per dimension,
    // one directed link each way (dir 0 = +, dir 1 = -).
    topo_.grid_.resize(capacity * static_cast<std::size_t>(ndims) * 2);
    for (std::size_t p = 0; p < capacity; ++p) {
        for (int dim = 0; dim < ndims; ++dim) {
            for (int dir = 0; dir < 2; ++dir) {
                topo_.grid_[(p * static_cast<std::size_t>(ndims) +
                             static_cast<std::size_t>(dim)) *
                                2 +
                            static_cast<std::size_t>(dir)] =
                    addLink(1.0, routerVertex(p),
                            routerVertex(neighborOf(p, dim, dir)));
            }
        }
    }
    // The longest dimension-ordered walk crosses half of every
    // wrapped ring (all of every mesh line), plus the NIC links.
    topo_.maxRoute_ = 2;
    for (const int dim : dims) {
        topo_.maxRoute_ += static_cast<std::size_t>(
            config.torusWrap ? dim / 2 : dim - 1);
    }
    topo_.dims_ = std::move(dims);
    topo_.wrap_ = config.torusWrap;
    return std::move(topo_);
}

CompiledTopology
TopologyBuilder::dragonfly(const TopologyConfig &config) &&
{
    const int nodes = topo_.nodes_;
    const int a = config.dragonflyRoutersPerGroup;
    const int p = config.dragonflyNodesPerRouter;
    int groups = config.dragonflyGroups;
    if (groups == 0) {
        groups = static_cast<int>(
            ceilDiv(static_cast<std::uint64_t>(nodes),
                    static_cast<std::uint64_t>(a) *
                        static_cast<std::uint64_t>(p)));
        if (groups < 1)
            groups = 1;
    }
    const std::size_t capacity = static_cast<std::size_t>(groups) *
        static_cast<std::size_t>(a) * static_cast<std::size_t>(p);
    if (capacity < static_cast<std::size_t>(nodes)) {
        fatal("topology: dragonfly of ", capacity,
              " terminals (", groups, " groups x ", a,
              " routers x ", p, " nodes) cannot host ", nodes,
              " nodes");
    }

    // Vertex scheme: router r lives at nodes + r; node n attaches
    // to router n / p.
    const auto routerVertex = [&](int r) {
        return static_cast<std::uint32_t>(nodes) +
            static_cast<std::uint32_t>(r);
    };
    addHostLinks([&](int n) { return routerVertex(n / p); });

    // Local links: one directed link per ordered router pair inside
    // each group. Global links: one directed aggregate link per
    // ordered group pair, attached at deterministic gateways.
    const int routers = groups * a;
    topo_.local_.resize(static_cast<std::size_t>(routers) *
                        static_cast<std::size_t>(a));
    for (int r = 0; r < routers; ++r) {
        const int group = r / a;
        for (int other = 0; other < a; ++other) {
            if (group * a + other == r)
                continue;
            topo_.local_[static_cast<std::size_t>(r) *
                             static_cast<std::size_t>(a) +
                         static_cast<std::size_t>(other)] =
                addLink(1.0, routerVertex(r),
                        routerVertex(group * a + other));
        }
    }
    topo_.global_.resize(static_cast<std::size_t>(groups) *
                         static_cast<std::size_t>(groups));
    for (int g1 = 0; g1 < groups; ++g1) {
        for (int g2 = 0; g2 < groups; ++g2) {
            if (g1 == g2)
                continue;
            topo_.global_[static_cast<std::size_t>(g1) *
                              static_cast<std::size_t>(groups) +
                          static_cast<std::size_t>(g2)] =
                addLink(1.0, routerVertex(g1 * a + g2 % a),
                        routerVertex(g2 * a + g1 % a));
        }
    }
    topo_.radix_ = a;
    topo_.perRouter_ = p;
    topo_.groups_ = groups;
    // NIC links around local, global, local.
    topo_.maxRoute_ = groups > 1 ? 5 : 3;
    return std::move(topo_);
}

std::span<const std::uint32_t>
CompiledTopology::route(int src, int dst,
                        std::span<std::uint32_t> out) const
{
    if (src == dst || kind_ == TopologyKind::flatBus)
        return {};
    ovlAssert(out.size() >= maxRoute_,
              "CompiledTopology::route: buffer below maxRouteLength()");
    std::size_t length = 0;
    switch (kind_) {
      case TopologyKind::fatTree:
        length = fatTreeRoute(src, dst, out.data());
        break;
      case TopologyKind::torus:
        length = torusRoute(src, dst, out.data());
        break;
      case TopologyKind::dragonfly:
        length = dragonflyRoute(src, dst, out.data());
        break;
      case TopologyKind::flatBus:
        break;
    }
    return out.first(length);
}

std::size_t
CompiledTopology::fatTreeRoute(int src, int dst,
                               std::uint32_t *out) const
{
    // Climb until both endpoints share a switch: `height` up links
    // on the source side, as many down links (in reverse level
    // order) on the destination side.
    std::size_t height = 0;
    for (int s = src / radix_, d = dst / radix_; s != d;
         s /= radix_, d /= radix_)
        ++height;
    const std::size_t length = 2 * height + 2;
    out[0] = hostUp_[static_cast<std::size_t>(src)];
    int s = src / radix_;
    int d = dst / radix_;
    for (std::size_t level = 0; level < height; ++level) {
        out[1 + level] =
            up_[levelBegin_[level] + static_cast<std::size_t>(s)];
        out[length - 2 - level] =
            down_[levelBegin_[level] + static_cast<std::size_t>(d)];
        s /= radix_;
        d /= radix_;
    }
    out[length - 1] = hostDown_[static_cast<std::size_t>(dst)];
    return length;
}

std::size_t
CompiledTopology::torusRoute(int src, int dst,
                             std::uint32_t *out) const
{
    std::size_t length = 0;
    out[length++] = hostUp_[static_cast<std::size_t>(src)];
    // Dimension-ordered routing from src's grid position (node n
    // sits at position n, dim 0 fastest); on a wrapped ring the
    // shorter way wins and exact ties go positive.
    const std::size_t ndims = dims_.size();
    std::size_t pos = static_cast<std::size_t>(src);
    std::size_t stride = 1;
    for (std::size_t dim = 0; dim < ndims; ++dim) {
        const int size = dims_[dim];
        const auto extent = static_cast<std::size_t>(size);
        int coord = static_cast<int>((pos / stride) % extent);
        const int goal = static_cast<int>(
            (static_cast<std::size_t>(dst) / stride) % extent);
        const int delta = goal - coord;
        int dir; // 0 = +, 1 = -
        int steps;
        if (wrap_) {
            const int forward = delta >= 0 ? delta : delta + size;
            const int backward = size - forward;
            if (forward <= backward) {
                dir = 0;
                steps = forward;
            } else {
                dir = 1;
                steps = backward;
            }
        } else {
            dir = delta >= 0 ? 0 : 1;
            steps = delta >= 0 ? delta : -delta;
        }
        for (int i = 0; i < steps; ++i) {
            out[length++] =
                grid_[(pos * ndims + dim) * 2 +
                      static_cast<std::size_t>(dir)];
            int next = coord + (dir == 0 ? 1 : -1);
            if (next < 0)
                next += size;
            if (next >= size)
                next -= size;
            pos = pos - static_cast<std::size_t>(coord) * stride +
                static_cast<std::size_t>(next) * stride;
            coord = next;
        }
        stride *= extent;
    }
    out[length++] = hostDown_[static_cast<std::size_t>(dst)];
    return length;
}

std::size_t
CompiledTopology::dragonflyRoute(int src, int dst,
                                 std::uint32_t *out) const
{
    const int a = radix_;
    const auto localLink = [&](int from_router, int to_local) {
        return local_[static_cast<std::size_t>(from_router) *
                          static_cast<std::size_t>(a) +
                      static_cast<std::size_t>(to_local)];
    };
    std::size_t length = 0;
    out[length++] = hostUp_[static_cast<std::size_t>(src)];
    const int r1 = src / perRouter_;
    const int r2 = dst / perRouter_;
    const int g1 = r1 / a;
    const int g2 = r2 / a;
    if (g1 == g2) {
        if (r1 != r2)
            out[length++] = localLink(r1, r2 % a);
    } else {
        // Minimal route through the gateway routers that hold the
        // (g1, g2) aggregate global link.
        const int gw1 = g1 * a + g2 % a;
        const int gw2 = g2 * a + g1 % a;
        if (r1 != gw1)
            out[length++] = localLink(r1, gw1 % a);
        out[length++] = global_[static_cast<std::size_t>(g1) *
                                    static_cast<std::size_t>(groups_) +
                                static_cast<std::size_t>(g2)];
        if (gw2 != r2)
            out[length++] = localLink(gw2, r2 % a);
    }
    out[length++] = hostDown_[static_cast<std::size_t>(dst)];
    return length;
}

std::size_t
CompiledTopology::memoryBytes() const
{
    const auto bytes = [](const auto &v) {
        return v.size() * sizeof(v[0]);
    };
    return bytes(linkFactor_) + bytes(linkFrom_) + bytes(linkTo_) +
        bytes(hostUp_) + bytes(hostDown_) + bytes(levelBegin_) +
        bytes(up_) + bytes(down_) + bytes(dims_) + bytes(grid_) +
        bytes(local_) + bytes(global_);
}

CompiledTopology
compileTopology(const TopologyConfig &config, int nodes)
{
    config.validate();
    ovlAssert(nodes > 0, "compileTopology: node count must be "
                         "positive");
    TopologyBuilder builder(config.kind, nodes);
    switch (config.kind) {
      case TopologyKind::flatBus:
        // The engine's classic bus pool handles flat platforms;
        // compile to no links so route() is well-defined (empty).
        return std::move(builder).flat();
      case TopologyKind::fatTree:
        return std::move(builder).fatTree(config);
      case TopologyKind::torus:
        return std::move(builder).torus(config);
      case TopologyKind::dragonfly:
        return std::move(builder).dragonfly(config);
    }
    panic("compileTopology: corrupt topology kind");
}

namespace topologies {

TopologyConfig
flatBus()
{
    return TopologyConfig{};
}

TopologyConfig
fatTree(int radix)
{
    TopologyConfig config;
    config.kind = TopologyKind::fatTree;
    config.fatTreeRadix = radix;
    config.fatTreeTaper = 1.0;
    return config;
}

TopologyConfig
taperedFatTree(int radix, double taper)
{
    TopologyConfig config = fatTree(radix);
    config.fatTreeTaper = taper;
    return config;
}

TopologyConfig
torus2d()
{
    TopologyConfig config;
    config.kind = TopologyKind::torus;
    config.torusWrap = true;
    return config;
}

TopologyConfig
dragonfly()
{
    TopologyConfig config;
    config.kind = TopologyKind::dragonfly;
    config.dragonflyGroups = 0; // auto-size
    config.dragonflyRoutersPerGroup = 2;
    config.dragonflyNodesPerRouter = 2;
    return config;
}

} // namespace topologies

} // namespace ovlsim::net
