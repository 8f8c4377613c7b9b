/**
 * @file
 * The job loop: independent jobs 0..n-1 on a few threads.
 *
 * This is the only place the simulator starts threads.  `SweepRunner`
 * runs its grid through it and the ML training pipeline its data
 * collections.  Each job must write only state of its own (its result
 * slot); the join publishes every slot to the caller, so no lock is
 * held while a job runs.
 */

#ifndef PEARL_COMMON_PARALLEL_HPP
#define PEARL_COMMON_PARALLEL_HPP

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/log.hpp"

namespace pearl {

/**
 * CPUs the calling thread may run on (taskset and cpusets narrow its
 * affinity mask), or hardware_concurrency() if the mask is unreadable.
 */
inline unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

/**
 * Effective job-worker count: `requested` if nonzero, else
 * PEARL_THREADS, else usableCpus(); clamped to [1, 256].
 */
inline unsigned
resolveThreads(unsigned requested)
{
    // The ceiling is far above any real host; it only bounds the damage
    // of a mistyped PEARL_THREADS.
    constexpr std::uint64_t kMaxThreads = 256;
    std::uint64_t n = requested;
    if (n == 0)
        n = envU64("PEARL_THREADS", 0);
    if (n == 0)
        n = usableCpus();
    return static_cast<unsigned>(
        std::clamp<std::uint64_t>(n, 1, kMaxThreads));
}

/**
 * Run fn(i) once for every i in [0, n) on up to `threads` threads: the
 * caller and min(threads, n) - 1 workers claim indices from one atomic
 * counter.  With one thread the jobs run inline on the calling thread,
 * in index order, and start no thread at all.
 *
 * A throwing job stops further claims; the first exception is rethrown
 * to the caller once every worker has joined.
 */
template <typename Fn>
void
forEachIndex(std::size_t n, unsigned threads, const Fn &fn)
{
    const std::size_t workers =
        std::min<std::size_t>(std::max(threads, 1u), n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto loop = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t) {
        try {
            pool.emplace_back(loop);
        } catch (const std::system_error &e) {
            // Out of threads: the ones running take every job anyway.
            warn("job loop: started ", pool.size() + 1, " of ", workers,
                 " threads (", e.what(), ")");
            break;
        }
    }
    loop();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace pearl

#endif // PEARL_COMMON_PARALLEL_HPP
