/**
 * @file
 * Fixed-size thread pool for fanning independent replays across
 * cores. It has one job: parallelFor.
 *
 * The campaign drivers' lane runner (core/analysis.cc) runs
 * dozens-to-hundreds of mutually independent tasks (replays,
 * bisections, variant construction). This pool runs such
 * index-addressed task sets with one long-lived worker per lane, so
 * callers can keep one reusable ReplaySession per lane and results
 * stay bit-identical to the sequential path: task i always writes
 * slot i, and no task observes another's state. Per-lane state (the
 * lane runner's sessions and span lists) is written during a job
 * and read after parallelFor returns: its completion barrier's
 * mutex publishes the writes.
 *
 * The calling thread participates as lane 0, so a pool of size 1
 * spawns no threads at all and parallelFor degenerates to a plain
 * loop — the sequential path and the 1-thread parallel path are the
 * same code.
 */

#ifndef OVLSIM_UTIL_THREAD_POOL_HH
#define OVLSIM_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
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

    /**
     * Create a pool of `threads` lanes (<= 0 means all hardware
     * cores). Lane 0 is the calling thread; `threads - 1` workers
     * are spawned.
     */
    explicit ThreadPool(int threads)
    {
        lanes_ = resolveThreads(threads);
        workers_.reserve(static_cast<std::size_t>(lanes_ - 1));
        for (int lane = 1; lane < lanes_; ++lane) {
            workers_.emplace_back(
                [this, lane] { workerLoop(lane); });
        }
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto &worker : workers_)
            worker.join();
    }

    /** Number of lanes (worker count including the caller). */
    int size() const { return lanes_; }

    /**
     * Run fn(task, lane) for every task in [0, count), distributing
     * tasks dynamically over all lanes; returns once every task has
     * finished. The caller runs tasks on lane 0. Task slots indexed
     * by `task` make results deterministic regardless of which lane
     * runs what. If any task throws, the remaining unclaimed tasks
     * are skipped (their result slots stay untouched) and the first
     * exception caught is rethrown here after all lanes drain.
     *
     * Not reentrant: tasks must not call parallelFor on the same
     * pool.
     */
    void
    parallelFor(std::size_t count,
                const std::function<void(std::size_t, int)> &fn)
    {
        if (count == 0)
            return;
        if (lanes_ == 1 || count == 1) {
            for (std::size_t task = 0; task < count; ++task)
                fn(task, 0);
            return;
        }
        {
            // Workers enter a job only after observing, under this
            // mutex, a new generation whose job is still OPEN. The
            // jobOpen_ flag closes the entry window before this call
            // returns, so a worker that slept through the whole job
            // (all tasks drained by other lanes) cannot slip into
            // runTasks later and race with the next publication's
            // writes to fn_/count_/nextTask_.
            std::lock_guard<std::mutex> lock(mutex_);
            fn_ = &fn;
            count_ = count;
            nextTask_.store(0, std::memory_order_relaxed);
            pending_.store(count, std::memory_order_relaxed);
            failed_.store(false, std::memory_order_relaxed);
            error_ = nullptr;
            jobOpen_ = true;
            ++generation_;
        }
        wake_.notify_all();
        runTasks(0);
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] {
            return pending_.load(std::memory_order_acquire) == 0 &&
                active_ == 0;
        });
        jobOpen_ = false;
        fn_ = nullptr;
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    void
    runTasks(int lane)
    {
        while (true) {
            const std::size_t task = nextTask_.fetch_add(
                1, std::memory_order_relaxed);
            if (task >= count_)
                return;
            // After a failure the remaining tasks are abandoned;
            // the exception propagates to the caller.
            if (!failed_.load(std::memory_order_relaxed)) {
                try {
                    (*fn_)(task, lane);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    if (!error_)
                        error_ = std::current_exception();
                    failed_.store(true,
                                  std::memory_order_relaxed);
                }
            }
            if (pending_.fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lock(mutex_);
                done_.notify_all();
                return;
            }
        }
    }

    void
    workerLoop(int lane)
    {
        std::uint64_t seen = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                // Joining requires an open job: once the caller has
                // collected a job's results, stragglers must wait
                // for the next publication instead of entering
                // runTasks against reclaimed job state.
                wake_.wait(lock, [this, seen] {
                    return stopping_ ||
                        (generation_ != seen && jobOpen_);
                });
                if (stopping_)
                    return;
                seen = generation_;
                ++active_;
            }
            runTasks(lane);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                --active_;
            }
            done_.notify_all();
        }
    }

    int lanes_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    bool stopping_ = false;
    std::uint64_t generation_ = 0;
    /** True from a job's publication until its results are
     * collected; guards the worker entry window. */
    bool jobOpen_ = false;
    /** Workers currently inside runTasks (caller not counted). */
    int active_ = 0;

    const std::function<void(std::size_t, int)> *fn_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> nextTask_{0};
    std::atomic<std::size_t> pending_{0};
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_THREAD_POOL_HH
