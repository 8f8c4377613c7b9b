/**
 * @file
 * Generic set-associative tag array with LRU replacement.
 *
 * The array stores NMOESI state plus caller-defined per-line metadata
 * (L2 lines track which local L1s hold the line; L3 lines carry directory
 * state).  Addresses are cache-line granular throughout the simulator, so
 * the array indexes directly on line addresses.
 *
 * Sets materialise on first touch.  Construction takes one block for
 * the lines and shadow tags from the process-wide StoragePool, which
 * may be a block an earlier array left behind, and writes none of it; a
 * bitmap with one bit per set records which sets exist.  victim() and
 * victimWhere() construct a set's `Line{}`s and zero its shadow tags
 * the first time they reach it, and find() misses on a set that does
 * not exist yet without reading its storage.  A set therefore holds
 * exactly what an eagerly initialised array would hold before any
 * operation can observe it, whatever the block held before, so every
 * result is the eager array's, while a short run pays only for the sets
 * it touches (DESIGN.md "Hot path").  Under AddressSanitizer the
 * storage of every unmaterialised set is poisoned, and so is a block
 * once its array is destroyed, so reading a set that does not exist yet
 * or a line of a destroyed array fails the run.
 */

#ifndef PEARL_CACHE_CACHE_ARRAY_HPP
#define PEARL_CACHE_CACHE_ARRAY_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "cache/nmoesi.hpp"
#include "cache/storage_pool.hpp"
#include "cache/validate.hpp"

namespace pearl {
namespace cache {

/** Empty metadata for caches that need none (L1s). */
struct NoMeta
{};

/** A set-associative array of coherence lines. */
template <typename Meta = NoMeta>
class CacheArray
{
  public:
    struct Line
    {
        // Field order puts the u64s first and the state byte next to
        // the metadata, so a line is 16 bytes plus the metadata rounded
        // up to 8: 24 bytes for the L1s and L2s, 48 for the L3, whose
        // 128-cluster SharerMask alone is 16 (pinned beside each array
        // type).  The arrays dwarf the host LLC, so bytes per line are
        // bytes per miss.
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        CacheState state = CacheState::I;
        Meta meta{};
    };
    // Storage goes back to the pool without running destructors, and
    // the shadow tags follow the lines in the same block.
    static_assert(std::is_trivially_destructible_v<Line>);
    static_assert(alignof(Line) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                  sizeof(Line) % alignof(std::uint64_t) == 0);

    /**
     * @param total_lines capacity in lines (must be divisible by ways).
     * @param ways        associativity.
     * @throws ConfigError when the geometry is invalid (shared check
     *         with cache::validate(HierarchyConfig)).
     */
    CacheArray(std::uint64_t total_lines, int ways)
        : ways_(ways > 0 ? ways : 1),
          numSets_(ways > 0 ? total_lines / static_cast<std::uint64_t>(ways)
                            : 0)
    {
        throwIfInvalid(
            validateArrayGeometry("CacheArray", total_lines, ways));
        // Every stock configuration has a power-of-two set count, so the
        // per-access set index can be a mask instead of a 64-bit modulo
        // (which sat high in the cycle-loop profile).  Odd set counts
        // keep the modulo path; the mapping is identical either way.
        pow2Sets_ = (numSets_ & (numSets_ - 1)) == 0;
        setMask_ = numSets_ - 1;
        const std::size_t bytes =
            total_lines * (sizeof(Line) + sizeof(std::uint64_t));
        lines_ = Block(static_cast<Line *>(StoragePool::shared().take(bytes)),
                       GiveBack{bytes});
        tags_ = reinterpret_cast<std::uint64_t *>(lines_.get() + total_lines);
        materialized_.assign((numSets_ + 63) / 64, 0);
    }

    std::uint64_t numSets() const { return numSets_; }
    int ways() const { return ways_; }
    std::uint64_t capacityLines() const { return numSets_ * waysU(); }

    /** Find a valid line for `line_addr`; nullptr on miss. */
    Line *
    find(std::uint64_t line_addr)
    {
        // A set that does not exist yet would hold only Line{}s, none
        // valid, so it misses without its storage being read.
        const std::uint64_t set = setOf(line_addr);
        if (!isMaterialized(set))
            return nullptr;
        // Scan the densely packed tag shadow first: a set's tags span one
        // or two cache lines, versus one line per way when striding over
        // the full Line records.  The arrays together exceed the host
        // LLC, so touched bytes per lookup are what this costs.  A tag
        // hit still checks the authoritative state — callers invalidate
        // lines by writing `state` directly, which leaves a stale shadow
        // tag behind (and possibly a second, valid copy in another way),
        // so a stale match must not end the scan.
        const std::uint64_t base = set * waysU();
        for (int w = 0; w < ways_; ++w) {
            if (tags_[base + static_cast<std::uint64_t>(w)] != line_addr)
                continue;
            Line &line = lines_[base + static_cast<std::uint64_t>(w)];
            if (isValid(line.state))
                return &line;
        }
        return nullptr;
    }

    const Line *
    find(std::uint64_t line_addr) const
    {
        return const_cast<CacheArray *>(this)->find(line_addr);
    }

    /** Update the LRU stamp on a touch. */
    void
    touch(Line &line)
    {
        line.lastUse = ++useClock_;
    }

    /**
     * Pick the victim way for `line_addr`: an invalid way if one exists,
     * otherwise the LRU way.  The caller must handle the eviction of a
     * valid victim (writeback, probes) before overwriting it.
     */
    Line &
    victim(std::uint64_t line_addr)
    {
        Line *const base = materialize(setOf(line_addr));
        Line *lru = base;
        for (int w = 0; w < ways_; ++w) {
            Line &line = base[w];
            if (!isValid(line.state))
                return line;
            if (line.lastUse < lru->lastUse)
                lru = &line;
        }
        return *lru;
    }

    /**
     * Like victim(), but avoids lines for which `busy(tag)` returns true
     * (e.g. lines with an in-flight transaction).  Falls back to the
     * plain LRU victim when every valid way is busy.
     */
    template <typename BusyPred>
    Line &
    victimWhere(std::uint64_t line_addr, BusyPred busy)
    {
        // Probe candidates in LRU order and stop at the first non-busy
        // one.  The LRU stamps are unique (useClock_ strictly
        // increases), so "first non-busy in ascending lastUse order" is
        // exactly "least-recently-used non-busy way" — the same line
        // the old every-way scan picked — while the busy predicate
        // (typically an MSHR scan) usually runs once instead of per way.
        Line *const base = materialize(setOf(line_addr));
        for (int w = 0; w < ways_; ++w) {
            if (!isValid(base[w].state))
                return base[w];
        }
        bool tried[64] = {};
        PEARL_ASSERT(ways_ <= 64);
        for (int round = 0; round < ways_; ++round) {
            Line *lru = nullptr;
            int lru_w = 0;
            for (int w = 0; w < ways_; ++w) {
                if (tried[w])
                    continue;
                if (!lru || base[w].lastUse < lru->lastUse) {
                    lru = &base[w];
                    lru_w = w;
                }
            }
            if (!busy(lru->tag))
                return *lru;
            tried[lru_w] = true;
        }
        return victim(line_addr); // every valid way is busy: plain LRU
    }

    /**
     * Install `line_addr` into `line` with `state`, resetting metadata and
     * touching LRU.  `line` must come from victim() for the same address.
     */
    void
    install(Line &line, std::uint64_t line_addr, CacheState state)
    {
        line.tag = line_addr;
        tags_[static_cast<std::size_t>(&line - lines_.get())] = line_addr;
        line.state = state;
        line.meta = Meta{};
        touch(line);
    }

    /** Count valid lines (tests / occupancy introspection). */
    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (std::size_t word = 0; word < materialized_.size(); ++word) {
            for (std::uint64_t bits = materialized_[word]; bits;
                 bits &= bits - 1) {
                const std::uint64_t set =
                    word * 64 +
                    static_cast<std::uint64_t>(std::countr_zero(bits));
                const Line *const base = &lines_[set * waysU()];
                for (int w = 0; w < ways_; ++w) {
                    if (isValid(base[w].state))
                        ++n;
                }
            }
        }
        return n;
    }

    /** Sets constructed so far (tests). */
    std::uint64_t
    materializedSets() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t word : materialized_)
            n += static_cast<std::uint64_t>(std::popcount(word));
        return n;
    }

    /** Start of the array's pooled block (tests: a rebuilt array of the
     *  same geometry gets its predecessor's block back). */
    const void *storageBlock() const { return lines_.get(); }

  private:
    /** Gives the block back to the pool; the lines are never destroyed
     *  (they are trivially destructible). */
    struct GiveBack
    {
        std::size_t bytes = 0;

        void
        operator()(Line *block) const
        {
            StoragePool::shared().give(block, bytes);
        }
    };

    using Block = std::unique_ptr<Line[], GiveBack>;

    std::uint64_t
    setOf(std::uint64_t line_addr) const
    {
        return pow2Sets_ ? (line_addr & setMask_) : (line_addr % numSets_);
    }

    std::uint64_t waysU() const { return static_cast<std::uint64_t>(ways_); }

    bool
    isMaterialized(std::uint64_t set) const
    {
        return (materialized_[set >> 6] >> (set & 63)) & 1;
    }

    /** First way of `set`, constructing the set on first touch. */
    Line *
    materialize(std::uint64_t set)
    {
        Line *const base = lines_.get() + set * waysU();
        std::uint64_t &word = materialized_[set >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (set & 63);
        if (!(word & bit)) {
            word |= bit;
            std::uint64_t *const tags = tags_ + set * waysU();
            unpoisonStorage(base, waysU() * sizeof(Line));
            unpoisonStorage(tags, waysU() * sizeof(std::uint64_t));
            std::uninitialized_value_construct_n(base, ways_);
            std::fill_n(tags, ways_, std::uint64_t{0});
        }
        return base;
    }

    int ways_;
    std::uint64_t numSets_;
    std::uint64_t setMask_ = 0;
    bool pow2Sets_ = false;
    /** The pooled block: capacityLines() lines, then the shadow tags. */
    Block lines_;
    /** Shadow of each line's tag, written only by install(); see find().
     *  Entries for invalid lines are stale, never cleared.  Points into
     *  lines_'s block. */
    std::uint64_t *tags_ = nullptr;
    /** One bit per set: set `s` exists iff bit `s % 64` of word `s / 64`. */
    std::vector<std::uint64_t> materialized_;
    std::uint64_t useClock_ = 0;
};

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_CACHE_ARRAY_HPP
