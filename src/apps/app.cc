#include "app.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ovlsim::apps {

// Defined by the individual proxy translation units.
const Application &nasBtApp();
const Application &nasCgApp();
const Application &popApp();
const Application &alyaApp();
const Application &specfemApp();
const Application &sweep3dApp();

void
Application::validate(const AppParams &params) const
{
    if (params.ranks < 2)
        fatal(name(), ": needs at least 2 ranks");
    if (params.iterations < 1)
        fatal(name(), ": needs at least 1 iteration");
    if (params.size < 4)
        fatal(name(), ": problem size too small");
    if (params.computeScale <= 0.0 || params.messageScale <= 0.0)
        fatal(name(), ": scales must be positive");
}

const std::vector<const Application *> &
appRegistry()
{
    static const std::vector<const Application *> registry = {
        &nasBtApp(),  &nasCgApp(),   &popApp(),
        &alyaApp(),   &specfemApp(), &sweep3dApp(),
    };
    return registry;
}

const Application &
findApp(std::string_view name)
{
    for (const auto *app : appRegistry()) {
        if (app->name() == name)
            return *app;
    }
    std::string available;
    for (const auto *app : appRegistry()) {
        if (!available.empty())
            available += ", ";
        available += app->name();
    }
    fatal("unknown application '", std::string(name),
          "'; available: ", available);
}

std::vector<std::string>
appNames()
{
    std::vector<std::string> names;
    for (const auto *app : appRegistry())
        names.push_back(app->name());
    return names;
}

Grid2D
Grid2D::closestFactors(int ranks)
{
    ovlAssert(ranks >= 1, "Grid2D of zero ranks");
    int best = 1;
    for (int f = 1; f * f <= ranks; ++f) {
        if (ranks % f == 0)
            best = f;
    }
    return Grid2D{ranks / best, best};
}

void
pairExchange(vm::VmContext &ctx, Rank partner, vm::Buffer send_buf,
             vm::Buffer recv_buf, Bytes bytes, Tag tag)
{
    ovlAssert(bytes > 0 && bytes <= send_buf.size &&
                  bytes <= recv_buf.size,
              "pairExchange: bad payload size");
    // Send-first on both sides: with the default buffered-send
    // model both transfers are concurrently in flight, so the
    // baseline pays one transfer delay, not two.
    ctx.send(send_buf, 0, bytes, partner, tag);
    ctx.recv(recv_buf, 0, bytes, partner, tag);
}

void
haloExchange(vm::VmContext &ctx, const std::vector<HaloOp> &ops)
{
    for (const auto &op : ops) {
        if (op.partner < 0)
            continue;
        ctx.send(op.send, 0, op.bytes, op.partner, op.sendTag);
    }
    for (const auto &op : ops) {
        if (op.partner < 0)
            continue;
        ctx.recv(op.recv, 0, op.bytes, op.partner, op.recvTag);
    }
}

Bytes
scaleBytes(Bytes bytes, double factor)
{
    const double scaled =
        std::max(1.0, static_cast<double>(bytes) * factor);
    return static_cast<Bytes>(std::llround(scaled));
}

Instr
scaleInstr(double instructions, double factor)
{
    const double scaled = std::max(1.0, instructions * factor);
    return static_cast<Instr>(std::llround(scaled));
}

} // namespace ovlsim::apps
