/**
 * @file
 * Proxy-application framework.
 *
 * The paper evaluates six real MPI codes (NAS-BT, NAS-CG, POP, Alya,
 * SPECFEM3D, Sweep3D). This module provides proxies that reproduce,
 * for each code, the properties the study depends on: communication
 * topology, message sizes, compute/communication ratio and — most
 * importantly — the *real* memory-access pattern on the communicated
 * data (which faces are produced early or late in a sweep, whether
 * halos are consumed immediately or progressively, and so on). Each
 * proxy is an ordinary VM program, so the tracing tool observes it
 * exactly as it would observe the real application under Valgrind.
 */

#ifndef OVLSIM_APPS_APP_HH
#define OVLSIM_APPS_APP_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vm/vm.hh"

namespace ovlsim::apps {

/** Common knobs shared by all proxies. */
struct AppParams
{
    /** Number of MPI ranks. */
    int ranks = 16;
    /** Outer iterations / time steps. */
    int iterations = 4;
    /** Characteristic problem dimension (per-app meaning). */
    int size = 48;
    /** Multiplier on every computation burst. */
    double computeScale = 1.0;
    /** Multiplier on every message size. */
    double messageScale = 1.0;
    /** Seed for irregular topologies (Alya). */
    std::uint64_t seed = 42;
};

/** One registered proxy application. */
class Application
{
  public:
    virtual ~Application() = default;

    /** Short identifier ("nas-bt", "sweep3d", ...). */
    virtual std::string name() const = 0;

    /** One-line description of what the proxy models. */
    virtual std::string description() const = 0;

    /** Sensible defaults used by the benches. */
    virtual AppParams defaults() const = 0;

    /** Reject parameter combinations the proxy cannot honour. */
    virtual void validate(const AppParams &params) const;

    /** Build the SPMD program for these parameters. */
    virtual vm::RankProgram program(const AppParams &params)
        const = 0;
};

/** All registered proxies, in a stable order. */
const std::vector<const Application *> &appRegistry();

/** Look an application up by name; throws FatalError if unknown. */
const Application &findApp(std::string_view name);

/** Names of all registered applications. */
std::vector<std::string> appNames();

// ---------------------------------------------------------------
// Shared helpers for writing proxies.
// ---------------------------------------------------------------

/** 2D process grid with near-square factorization. */
struct Grid2D
{
    int px = 1;
    int py = 1;

    static Grid2D closestFactors(int ranks);

    int x(Rank r) const { return r % px; }
    int y(Rank r) const { return r / px; }
    Rank
    at(int gx, int gy) const
    {
        return gy * px + gx;
    }
    bool
    inside(int gx, int gy) const
    {
        return gx >= 0 && gx < px && gy >= 0 && gy < py;
    }
};

/**
 * Blocking exchange with one partner, nas-cg's: both sides send
 * `bytes` first, then receive them. Under the buffered (eager) send
 * model both transfers are in flight at once; above the rendezvous
 * threshold each send waits for a receive its partner has not yet
 * posted, so the exchange deadlocks.
 */
void pairExchange(vm::VmContext &ctx, Rank partner,
                  vm::Buffer send_buf, vm::Buffer recv_buf,
                  Bytes bytes, Tag tag);

/** One leg of a grouped halo exchange. */
struct HaloOp
{
    Rank partner = -1;
    vm::Buffer send;
    vm::Buffer recv;
    Bytes bytes = 0;
    /** Tag of the outgoing message. */
    Tag sendTag = 0;
    /** Tag of the incoming message (the partner's send tag). */
    Tag recvTag = 0;
};

/**
 * Grouped halo exchange in the common legacy idiom: all sends are
 * issued first (buffered, so they return immediately under the
 * default platform model), then all receives. All transfers of the
 * group are therefore concurrently in flight — the baseline is not
 * penalized by artificial pairwise serialization. Ops whose partner
 * is negative are skipped.
 */
void haloExchange(vm::VmContext &ctx,
                  const std::vector<HaloOp> &ops);

/** Scale a byte count, keeping it positive. */
Bytes scaleBytes(Bytes bytes, double factor);

/** Scale an instruction count, keeping it positive. */
Instr scaleInstr(double instructions, double factor);

} // namespace ovlsim::apps

#endif // OVLSIM_APPS_APP_HH
