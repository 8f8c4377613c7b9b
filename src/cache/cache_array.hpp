/**
 * @file
 * Generic set-associative tag array with LRU replacement.
 *
 * The array stores NMOESI state plus caller-defined per-line metadata
 * (L2 lines track which local L1s hold the line; L3 lines carry directory
 * state).  Addresses are cache-line granular throughout the simulator, so
 * the array indexes directly on line addresses.
 *
 * Ways are built on their first fill.  Construction takes one block for
 * the lines and shadow tags from the process-wide StoragePool, which
 * may be a block an earlier array left behind, and writes none of it; a
 * one-byte count per set records how many of its ways exist, always
 * ways 0 to count - 1.  When every built way of a set is valid and the
 * set is not full, victim() and victimWhere() build the next way, one
 * `Line{}` and a zero shadow tag, and return it; find() and
 * validLines() read built ways only.  An unbuilt way would hold a
 * `Line{}` in state I, and its index is above every built way's, so
 * the first invalid way, every lookup and every LRU pick are the eager
 * array's, whatever the block held before, while a run pays only for
 * the ways it fills (DESIGN.md "Hot path").  Under AddressSanitizer the
 * storage of every unbuilt way is poisoned, and so is a block once its
 * array is destroyed, so reading a way that does not exist yet or a
 * line of a destroyed array fails the run.
 */

#ifndef PEARL_CACHE_CACHE_ARRAY_HPP
#define PEARL_CACHE_CACHE_ARRAY_HPP

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
        built_.assign(numSets_, 0);
    }

    std::uint64_t numSets() const { return numSets_; }
    int ways() const { return ways_; }
    std::uint64_t capacityLines() const { return numSets_ * waysU(); }

    /** Find a valid line for `line_addr`; nullptr on miss. */
    Line *
    find(std::uint64_t line_addr)
    {
        // Scan the set's built ways only: a way that does not exist yet
        // would hold a Line{}, which is invalid.  Scan the densely packed
        // tag shadow first: a set's tags span one or two cache lines,
        // versus one line per way when striding over the full Line
        // records.  The arrays together exceed the host LLC, so touched
        // bytes per lookup are what this costs.  A tag hit still checks
        // the authoritative state — callers invalidate lines by writing
        // `state` directly, which leaves a stale shadow tag behind (and
        // possibly a second, valid copy in another way), so a stale
        // match must not end the scan.
        const std::uint64_t set = setOf(line_addr);
        const std::uint64_t base = set * waysU();
        const int built = built_[set];
        for (int w = 0; w < built; ++w) {
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
     * Pick the victim way for `line_addr`: the first invalid way if one
     * exists (building the next way when every built one is valid),
     * otherwise the LRU way.  The caller must handle the eviction of a
     * valid victim (writeback, probes) before overwriting it.
     */
    Line &
    victim(std::uint64_t line_addr)
    {
        const std::uint64_t set = setOf(line_addr);
        Line *const base = lines_.get() + set * waysU();
        const int built = built_[set];
        Line *lru = base;
        for (int w = 0; w < built; ++w) {
            Line &line = base[w];
            if (!isValid(line.state))
                return line;
            if (line.lastUse < lru->lastUse)
                lru = &line;
        }
        return built < ways_ ? buildWay(set) : *lru;
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
        const std::uint64_t set = setOf(line_addr);
        Line *const base = lines_.get() + set * waysU();
        const int built = built_[set];
        for (int w = 0; w < built; ++w) {
            if (!isValid(base[w].state))
                return base[w];
        }
        if (built < ways_)
            return buildWay(set);
        // Every way is built and valid.  Probe candidates in LRU order
        // and stop at the first non-busy one.  The LRU stamps are unique
        // (useClock_ strictly increases), so "first non-busy in
        // ascending lastUse order" is exactly "least-recently-used
        // non-busy way" — the same line the old every-way scan picked —
        // while the busy predicate (typically an MSHR scan) usually runs
        // once instead of per way.
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
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            const Line *const base = lines_.get() + set * waysU();
            for (int w = 0; w < built_[set]; ++w) {
                if (isValid(base[w].state))
                    ++n;
            }
        }
        return n;
    }

    /** Ways built so far, summed over every set (tests). */
    std::uint64_t
    builtWays() const
    {
        std::uint64_t n = 0;
        for (std::uint8_t built : built_)
            n += built;
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

    /** Build the next way of `set`, which must not be full: a Line{}
     *  and a zero shadow tag, as the eager array held there. */
    Line &
    buildWay(std::uint64_t set)
    {
        std::uint8_t &built = built_[set];
        const std::uint64_t i = set * waysU() + built;
        ++built;
        unpoisonStorage(lines_.get() + i, sizeof(Line));
        unpoisonStorage(tags_ + i, sizeof(std::uint64_t));
        tags_[i] = 0;
        return *std::construct_at(lines_.get() + i);
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
    /** Built ways per set: set `s` has ways 0 to built_[s] - 1.  The
     *  count fits a byte because validateArrayGeometry() caps the
     *  associativity at 64. */
    std::vector<std::uint8_t> built_;
    std::uint64_t useClock_ = 0;
};

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_CACHE_ARRAY_HPP
