/**
 * @file
 * Thread pool for fanning independent replays across cores. It has
 * one job: parallelFor.
 *
 * The campaign drivers' lane runner (core/analysis.cc) runs
 * dozens-to-hundreds of mutually independent tasks (replays,
 * bisections, variant construction) in one to three parallelFor
 * calls per driver. Each call starts its lanes' threads, runs lane
 * 0 on the caller and joins the others before it returns, so no
 * thread outlives a call. Callers can keep one reusable
 * ReplaySession per lane, and results stay bit-identical to the
 * sequential path: task i always writes slot i, and no task
 * observes another's state. Per-lane state (the lane runner's
 * sessions and span lists) is written by one thread per call and
 * read after parallelFor returns: the join publishes the writes.
 *
 * A pool of size 1, or a call with one task, starts no thread, and
 * parallelFor degenerates to a plain loop — the sequential path and
 * the 1-thread parallel path are the same code.
 */

#ifndef OVLSIM_UTIL_THREAD_POOL_HH
#define OVLSIM_UTIL_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace ovlsim {

class ThreadPool
{
  public:
    /** Threads to use for `requested` (<= 0 means all hardware
     * cores). */
    static int
    resolveThreads(int requested)
    {
        if (requested > 0)
            return requested;
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<int>(hw) : 1;
    }

    /** A pool of `threads` lanes (<= 0 means all hardware cores);
     * lane 0 is the calling thread. */
    explicit ThreadPool(int threads) : lanes_(resolveThreads(threads))
    {
    }

    /** Number of lanes (threads including the caller). */
    int size() const { return lanes_; }

    /**
     * Run fn(task, lane) for every task in [0, count), distributing
     * tasks dynamically over min(size(), count) lanes; returns once
     * every task has finished. The caller runs lane 0, and each
     * other lane is one thread, started here and joined before the
     * return. Task slots indexed by `task` make results
     * deterministic regardless of which lane runs what. If any task
     * throws, the remaining unclaimed tasks are skipped (their
     * result slots stay untouched) and the first exception caught
     * is rethrown here after every lane has joined.
     */
    void
    parallelFor(std::size_t count,
                const std::function<void(std::size_t, int)> &fn) const
    {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        // Written only by the lane that sets `failed`, read after
        // the join.
        std::exception_ptr error;
        const auto runLane = [&](int lane) {
            for (std::size_t task = next++; task < count && !failed;
                 task = next++) {
                try {
                    fn(task, lane);
                } catch (...) {
                    if (!failed.exchange(true))
                        error = std::current_exception();
                }
            }
        };
        {
            std::vector<std::jthread> threads;
            const auto lanes = std::min(
                static_cast<std::size_t>(lanes_), count);
            for (std::size_t lane = 1; lane < lanes; ++lane)
                threads.emplace_back(runLane, static_cast<int>(lane));
            runLane(0);
        } // The jthreads join here.
        if (error)
            std::rethrow_exception(error);
    }

  private:
    int lanes_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_THREAD_POOL_HH
