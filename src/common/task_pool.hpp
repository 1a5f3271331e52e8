/**
 * @file
 * Persistent worker pool for fine-grained per-cycle fan-out: run(n)
 * executes fn(ctx, i) for i in [0, n) across the pool and returns when
 * every index has completed. Built for the phased SM tick engine
 * (gpu::Gpu::run), where one dispatch per simulated cycle must cost on
 * the order of a microsecond, so the design choices differ from the
 * coarse-grained harness::SweepEngine pool:
 *
 *  - The calling thread participates: it drains indices alongside the
 *    workers, so a pool of T threads spawns only T-1. On a machine
 *    with fewer cores than threads (or a pool bigger than the work),
 *    the caller simply does everything itself and never blocks on a
 *    descheduled worker.
 *  - Indices are claimed from a shared atomic counter (work stealing),
 *    not pre-chunked, so a stalled worker can only delay the indices
 *    it already claimed.
 *  - Workers spin briefly on the job word between dispatches
 *    (consecutive simulated cycles arrive within microseconds) and
 *    fall back to a condition variable when idle, so an idle pool
 *    costs no CPU.
 *
 * Completion is detected by a per-index done count, never by queue
 * emptiness, so run() returning means every fn call has finished and
 * its writes are visible to the caller (release/acquire on done_).
 * Every claim carries its run's generation, so a worker still draining
 * one run when the next begins can neither run an index of the new
 * run nor add to its done count.
 * The assignment of indices to threads is scheduling-dependent; callers
 * needing determinism must make fn(i) touch index-private state only,
 * which is exactly the contract of the SM-local tick phase.
 */

#ifndef GEX_COMMON_TASK_POOL_HPP
#define GEX_COMMON_TASK_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace gex::common {

class TaskPool
{
  public:
    /** Plain function pointer: one indirect call per index, and a
     *  capture-less lambda converts implicitly. */
    using Fn = void (*)(void *ctx, int index);

    /** @p threads total workers including the caller (min 1). */
    explicit TaskPool(int threads)
    {
        int spawn = threads > 1 ? threads - 1 : 0;
        workers_.reserve(static_cast<std::size_t>(spawn));
        for (int t = 0; t < spawn; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~TaskPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_.store(true, std::memory_order_release);
            job_.fetch_add(kGenOne, std::memory_order_release);
        }
        cv_.notify_all();
        for (std::thread &w : workers_)
            w.join();
    }

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    int threads() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /** Execute fn(ctx, 0..n-1); returns once all calls completed. */
    void
    run(int n, Fn fn, void *ctx)
    {
        if (n <= 0)
            return;
        if (workers_.empty()) {
            for (int i = 0; i < n; ++i)
                fn(ctx, i);
            return;
        }
        fn_ = fn;
        ctx_ = ctx;
        done_.store(0, std::memory_order_relaxed);
        const std::uint64_t gen =
            (job_.load(std::memory_order_relaxed) & kGenMask) + kGenOne;
        next_.store(gen, std::memory_order_relaxed);
        const std::uint64_t job = gen | static_cast<std::uint32_t>(n);
        {
            // The lock pairs with the cv_ predicate check so a worker
            // moving to sleep cannot miss the new job.
            std::lock_guard<std::mutex> lock(mu_);
            job_.store(job, std::memory_order_release);
        }
        cv_.notify_all();
        drain(job);
        // Queue emptiness is not completion: a worker may hold a
        // claimed index. Wait for the count, yielding so an
        // oversubscribed worker can finish its claim.
        while (done_.load(std::memory_order_acquire) < n)
            std::this_thread::yield();
    }

  private:
    /**
     * Claim and run indices of @p job (generation | n) until none is
     * left. A claim only succeeds while next_ still carries the job's
     * generation: the run cannot finish before the claimed index does,
     * so fn_ and ctx_ stay put while it runs.
     */
    void
    drain(std::uint64_t job)
    {
        const std::uint64_t gen = job & kGenMask;
        const std::uint32_t n = static_cast<std::uint32_t>(job);
        std::uint64_t cur = next_.load(std::memory_order_relaxed);
        for (;;) {
            if ((cur & kGenMask) != gen ||
                static_cast<std::uint32_t>(cur) >= n)
                return;
            if (!next_.compare_exchange_weak(cur, cur + 1,
                                             std::memory_order_relaxed))
                continue;
            fn_(ctx_, static_cast<int>(static_cast<std::uint32_t>(cur)));
            done_.fetch_add(1, std::memory_order_release);
            cur = next_.load(std::memory_order_relaxed);
        }
    }

    void
    workerLoop()
    {
        std::uint64_t seen = job_.load(std::memory_order_acquire);
        for (;;) {
            // A worker first scheduled only after ~TaskPool ran (tiny
            // pool lifetime on a loaded host) starts with seen already
            // at the final job, so no further bump or notify is
            // coming: stop_ must gate the wait itself, not just the
            // post-wakeup path.
            if (stop_.load(std::memory_order_acquire))
                return;
            int spins = 0;
            while (job_.load(std::memory_order_acquire) == seen) {
                if (stop_.load(std::memory_order_acquire))
                    return;
                if (++spins < kSpinsBeforeSleep) {
                    std::this_thread::yield();
                } else {
                    std::unique_lock<std::mutex> lock(mu_);
                    cv_.wait(lock, [&] {
                        return stop_.load(std::memory_order_relaxed) ||
                               job_.load(std::memory_order_relaxed) !=
                                   seen;
                    });
                    break;
                }
            }
            seen = job_.load(std::memory_order_acquire);
            if (stop_.load(std::memory_order_relaxed))
                return;
            drain(seen);
        }
    }

    static constexpr int kSpinsBeforeSleep = 1024;
    // job_ and next_ hold a run generation in their high 32 bits; the
    // low 32 are the index count (job_) or the next index (next_).
    static constexpr std::uint64_t kGenOne = 1ull << 32;
    static constexpr std::uint64_t kGenMask = ~0xffffffffull;

    // Job slots: written by run() before the job_ release-store, read
    // by workers after their acquire-load of job_.
    Fn fn_ = nullptr;
    void *ctx_ = nullptr;

    alignas(64) std::atomic<std::uint64_t> next_{0};
    alignas(64) std::atomic<int> done_{0};
    alignas(64) std::atomic<std::uint64_t> job_{0};
    std::atomic<bool> stop_{false};

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::thread> workers_;
};

} // namespace gex::common

#endif // GEX_COMMON_TASK_POOL_HPP
