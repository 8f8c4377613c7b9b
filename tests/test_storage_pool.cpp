/**
 * @file
 * Tests for the storage pool behind every CacheArray: recycling by byte
 * size, the bound on what it holds, its eviction order, its mutex under
 * concurrent sweeps, and its lifetime at exit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/storage_pool.hpp"
#include "common/rng.hpp"

namespace pearl {
namespace cache {
namespace {

TEST(StoragePool, SameSizeRequestGetsTheSameBlockBack)
{
    StoragePool pool;
    void *const a = pool.take(4096);
    void *const b = pool.take(4096);
    EXPECT_EQ(pool.pooledBytes(), 0u);
    pool.give(a, 4096);
    pool.give(b, 4096);
    EXPECT_EQ(pool.pooledBytes(), 8192u);
    // The block given back last comes out first.
    EXPECT_EQ(pool.take(4096), b);
    EXPECT_EQ(pool.take(4096), a);
    EXPECT_EQ(pool.pooledBytes(), 0u);
    pool.give(a, 4096);
    pool.give(b, 4096);
}

TEST(StoragePool, PooledPlusLiveNeverExceedsPeakLive)
{
    StoragePool pool;
    Rng rng(23);
    constexpr std::size_t kSizes[] = {64, 200, 4096, 4104, 65536};
    std::vector<std::pair<void *, std::size_t>> live;
    std::size_t live_bytes = 0;
    std::size_t peak = 0;
    for (int step = 0; step < 4000; ++step) {
        // Drift between a near-empty and a well-filled pool.
        const bool grow = (step / 500) % 2 == 0;
        if (live.empty() || rng.below(4) < (grow ? 3u : 1u)) {
            const std::size_t bytes = kSizes[rng.below(std::size(kSizes))];
            live.emplace_back(pool.take(bytes), bytes);
            live_bytes += bytes;
            peak = std::max(peak, live_bytes);
        } else {
            const std::size_t i = rng.below(live.size());
            pool.give(live[i].first, live[i].second);
            live_bytes -= live[i].second;
            live[i] = live.back();
            live.pop_back();
        }
        ASSERT_LE(pool.pooledBytes() + live_bytes, peak) << "step " << step;
    }
    for (const auto &[block, bytes] : live)
        pool.give(block, bytes);
}

TEST(StoragePool, MissingSizeFreesOldestBlocksFirst)
{
    StoragePool pool;
    void *const a = pool.take(1000);
    void *const b = pool.take(3000);
    void *const c = pool.take(2000);
    pool.give(a, 1000); // oldest
    pool.give(b, 3000);
    pool.give(c, 2000); // newest
    // No 1,500-byte block is pooled.  Freeing a (1,000 bytes) is not
    // enough, so b goes too, and c stays.  Newest-, largest- or
    // smallest-first would have left 4,000 or 3,000 bytes pooled.
    void *const d = pool.take(1500);
    EXPECT_EQ(pool.pooledBytes(), 2000u);
    EXPECT_EQ(pool.take(2000), c);
    EXPECT_EQ(pool.pooledBytes(), 0u);
    pool.give(c, 2000);
    pool.give(d, 1500);
}

/** A new array holds nothing whatever its block held; it then leaves
 *  eight valid lines behind for the block's next owner.  Returns the
 *  number of wrong lookups. */
int
useOnce(CacheArray<> &arr, Rng &rng)
{
    int bad = arr.builtWays() != 0 ? 1 : 0;
    std::uint64_t addrs[8];
    for (std::uint64_t &addr : addrs) {
        addr = rng.below(4 * arr.capacityLines());
        bad += arr.find(addr) != nullptr;
    }
    for (std::uint64_t addr : addrs)
        arr.install(arr.victim(addr), addr, CacheState::M);
    for (std::uint64_t addr : addrs)
        bad += arr.find(addr) == nullptr;
    return bad;
}

TEST(StoragePool, FourThreadsRecycleArraysOfThreeGeometries)
{
    // Exactly 4 threads, as the sweeps run: under ThreadSanitizer each
    // block handed between threads is race-checked through the pool's
    // mutex.
    constexpr int kThreads = 4;
    constexpr int kRounds = 200;
    std::vector<int> bad(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &bad] {
            Rng rng(static_cast<std::uint64_t>(t) + 1);
            for (int round = 0; round < kRounds; ++round) {
                CacheArray<> small(512, 8);
                CacheArray<> large(4096, 16);
                CacheArray<> medium(2048, 16);
                bad[t] += useOnce(small, rng) + useOnce(large, rng) +
                          useOnce(medium, rng);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[t], 0) << "thread " << t;
}

TEST(StoragePool, StaticArraysGiveTheirBlocksBackBeforeThePoolGoes)
{
    // An array with static storage duration is destroyed at exit, and
    // the pool must still be there to take its block: under ASan a
    // destroyed pool's map would be a heap-use-after-free.  The pool
    // frees what it holds, so LSan reports no leak either.
    EXPECT_EXIT(
        {
            { CacheArray<> pooled(64, 4); }
            static CacheArray<> survivor(128, 4);
            survivor.install(survivor.victim(3), 3, CacheState::S);
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace cache
} // namespace pearl
