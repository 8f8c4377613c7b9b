/**
 * @file
 * Tests for the generic set-associative cache array, including a
 * lockstep differential test against the eagerly initialised array the
 * simulator used before ways were built on their first fill, over fresh
 * and recycled storage, up to the 64-way maximum associativity.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "cache/cache_array.hpp"
#include "cache/sharer_mask.hpp"
#include "common/rng.hpp"

namespace pearl {
namespace cache {
namespace {

TEST(CacheArray, MissOnEmpty)
{
    CacheArray<> arr(64, 4);
    EXPECT_EQ(arr.find(0x1234), nullptr);
    EXPECT_EQ(arr.validLines(), 0u);
}

TEST(CacheArray, InstallThenFind)
{
    CacheArray<> arr(64, 4);
    auto &victim = arr.victim(0x1234);
    arr.install(victim, 0x1234, CacheState::E);
    auto *line = arr.find(0x1234);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tag, 0x1234u);
    EXPECT_EQ(line->state, CacheState::E);
    EXPECT_EQ(arr.validLines(), 1u);
}

TEST(CacheArray, GeometryChecks)
{
    CacheArray<> arr(128, 8);
    EXPECT_EQ(arr.numSets(), 16u);
    EXPECT_EQ(arr.ways(), 8);
    EXPECT_EQ(arr.capacityLines(), 128u);
}

TEST(CacheArray, VictimPrefersInvalidWays)
{
    CacheArray<> arr(16, 4); // 4 sets
    // Fill 3 of 4 ways in set 0.
    for (std::uint64_t addr : {0ULL, 4ULL, 8ULL}) {
        auto &v = arr.victim(addr);
        EXPECT_FALSE(isValid(v.state));
        arr.install(v, addr, CacheState::S);
    }
    // The next victim in set 0 must still be the remaining invalid way.
    auto &v = arr.victim(12);
    EXPECT_FALSE(isValid(v.state));
}

TEST(CacheArray, LruEviction)
{
    CacheArray<> arr(8, 2); // 4 sets, 2 ways
    // Two lines mapping to set 0 (addr % 4 == 0).
    auto &v0 = arr.victim(0);
    arr.install(v0, 0, CacheState::S);
    auto &v4 = arr.victim(4);
    arr.install(v4, 4, CacheState::S);
    // Touch line 0 so line 4 is LRU.
    arr.touch(*arr.find(0));
    auto &victim = arr.victim(8);
    EXPECT_EQ(victim.tag, 4u);
}

TEST(CacheArray, VictimWhereSkipsBusyLines)
{
    CacheArray<> arr(8, 2);
    auto &v0 = arr.victim(0);
    arr.install(v0, 0, CacheState::S);
    auto &v4 = arr.victim(4);
    arr.install(v4, 4, CacheState::S);
    arr.touch(*arr.find(0)); // line 4 would be the LRU victim
    auto &victim =
        arr.victimWhere(8, [](std::uint64_t tag) { return tag == 4; });
    EXPECT_EQ(victim.tag, 0u); // busy line 4 skipped
}

TEST(CacheArray, VictimWhereFallsBackWhenAllBusy)
{
    CacheArray<> arr(8, 2);
    auto &v0 = arr.victim(0);
    arr.install(v0, 0, CacheState::S);
    auto &v4 = arr.victim(4);
    arr.install(v4, 4, CacheState::S);
    auto &victim = arr.victimWhere(8, [](std::uint64_t) { return true; });
    EXPECT_TRUE(isValid(victim.state)); // still returns something
}

TEST(CacheArray, MetadataResetOnInstall)
{
    struct Meta
    {
        int value = 0;
    };
    CacheArray<Meta> arr(8, 2);
    auto &v = arr.victim(3);
    arr.install(v, 3, CacheState::M);
    arr.find(3)->meta.value = 42;
    // Reinstall a different line into the same way.
    auto *line = arr.find(3);
    line->state = CacheState::I;
    auto &v2 = arr.victim(7);
    arr.install(v2, 7, CacheState::S);
    EXPECT_EQ(arr.find(7)->meta.value, 0);
}

TEST(CacheArray, SetIsolation)
{
    CacheArray<> arr(16, 4); // 4 sets
    // Fill set 0 completely.
    for (std::uint64_t addr : {0ULL, 4ULL, 8ULL, 12ULL}) {
        auto &v = arr.victim(addr);
        arr.install(v, addr, CacheState::S);
    }
    // Set 1 is untouched: its victim is invalid.
    EXPECT_FALSE(isValid(arr.victim(1).state));
    // All of set 0 findable.
    for (std::uint64_t addr : {0ULL, 4ULL, 8ULL, 12ULL})
        EXPECT_NE(arr.find(addr), nullptr);
}

TEST(CacheArray, ResetInvalidatesEverything)
{
    // A rebuilt array of the same geometry is the reset: it gets the
    // old array's block back, valid line included, and holds nothing.
    std::optional<CacheArray<>> arr(std::in_place, 8, 2);
    auto &v = arr->victim(1);
    arr->install(v, 1, CacheState::M);
    const void *const block = arr->storageBlock();
    arr.emplace(8, 2);
    EXPECT_EQ(arr->storageBlock(), block);
    EXPECT_EQ(arr->find(1), nullptr);
    EXPECT_EQ(arr->validLines(), 0u);
}

TEST(CacheArray, InvalidLinesNotFound)
{
    CacheArray<> arr(8, 2);
    auto &v = arr.victim(5);
    arr.install(v, 5, CacheState::S);
    arr.find(5)->state = CacheState::I;
    EXPECT_EQ(arr.find(5), nullptr);
}

TEST(CacheArray, ConstructionFindAndResetMaterialiseNoSet)
{
    // Pins the per-way layout: construction, find() and a rebuild over
    // the recycled block build no way, and a fill that finds no invalid
    // built way builds exactly the set's next one.  Building a whole set
    // on its first touch, or every set at construction, fails here.
    std::optional<CacheArray<>> arr(std::in_place, 1024, 8); // 128 sets
    EXPECT_EQ(arr->builtWays(), 0u);
    for (std::uint64_t addr = 0; addr < 4096; addr += 3)
        EXPECT_EQ(arr->find(addr), nullptr);
    EXPECT_EQ(arr->find(~std::uint64_t{0}), nullptr);
    EXPECT_EQ(arr->builtWays(), 0u);
    EXPECT_EQ(arr->validLines(), 0u);

    // Set 5 fills in way order, one built way per fill.
    using Line = CacheArray<>::Line;
    const auto in_set5 = [](std::uint64_t k) { return 5 + 128 * k; };
    Line *const way0 = &arr->victim(in_set5(0));
    EXPECT_EQ(arr->builtWays(), 1u);
    arr->install(*way0, in_set5(0), CacheState::S);
    for (std::uint64_t k = 1; k < 4; ++k) {
        Line &v = arr->victim(in_set5(k));
        EXPECT_EQ(&v, way0 + k);
        EXPECT_EQ(v.state, CacheState::I);
        EXPECT_EQ(arr->builtWays(), k + 1);
        arr->install(v, in_set5(k), CacheState::S);
    }
    EXPECT_NE(arr->find(in_set5(2)), nullptr);
    EXPECT_EQ(arr->builtWays(), 4u);

    // An invalid built way is taken before a new way is built.
    const auto always_busy = [](std::uint64_t) { return true; };
    arr->find(in_set5(1))->state = CacheState::I;
    EXPECT_EQ(&arr->victim(in_set5(4)), way0 + 1);
    EXPECT_EQ(&arr->victimWhere(in_set5(4), always_busy), way0 + 1);
    EXPECT_EQ(arr->builtWays(), 4u);
    arr->install(way0[1], in_set5(1), CacheState::S);

    // With every built way valid and busy, victimWhere() builds the next
    // way instead of returning a busy one, and takes it again while it
    // stays invalid.
    Line &fresh = arr->victimWhere(in_set5(4), always_busy);
    EXPECT_EQ(&fresh, way0 + 4);
    EXPECT_EQ(fresh.state, CacheState::I);
    EXPECT_EQ(arr->builtWays(), 5u);
    EXPECT_EQ(&arr->victimWhere(in_set5(4), always_busy), way0 + 4);
    EXPECT_EQ(arr->builtWays(), 5u);

    // An untouched set builds one way, not eight.
    EXPECT_EQ(arr->victimWhere(6, always_busy).state, CacheState::I);
    EXPECT_EQ(arr->builtWays(), 6u);

    // A full set builds nothing more: its victim is the LRU way (way 0,
    // installed first), or the LRU non-busy way (way 2; way 1 was
    // installed again above).
    for (std::uint64_t k = 4; k < 8; ++k)
        arr->install(arr->victim(in_set5(k)), in_set5(k), CacheState::S);
    EXPECT_EQ(arr->builtWays(), 9u);
    EXPECT_EQ(&arr->victim(in_set5(8)), way0);
    EXPECT_EQ(&arr->victimWhere(in_set5(8),
                                [&](std::uint64_t tag) {
                                    return tag == in_set5(0);
                                }),
              way0 + 2);
    EXPECT_EQ(arr->builtWays(), 9u);
    EXPECT_EQ(arr->validLines(), 8u);

    const void *const block = arr->storageBlock();
    arr.emplace(1024, 8);
    EXPECT_EQ(arr->storageBlock(), block);
    EXPECT_EQ(arr->builtWays(), 0u);
    EXPECT_EQ(arr->find(5), nullptr);
    EXPECT_EQ(arr->builtWays(), 0u);
    EXPECT_EQ(arr->capacityLines(), 1024u);
}

// Differential test against the eager array ------------------------------

/**
 * The cache array as it was before its storage was built lazily: every
 * line and shadow tag written at construction.  Kept as the
 * lockstep reference: its operations are copied unchanged, only
 * comments and members the test does not use are dropped.
 */
template <typename Meta = NoMeta>
class EagerCacheArray
{
  public:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        CacheState state = CacheState::I;
        Meta meta{};
    };

    EagerCacheArray(std::uint64_t total_lines, int ways)
        : ways_(ways > 0 ? ways : 1),
          numSets_(ways > 0 ? total_lines / static_cast<std::uint64_t>(ways)
                            : 0)
    {
        throwIfInvalid(
            validateArrayGeometry("CacheArray", total_lines, ways));
        pow2Sets_ = (numSets_ & (numSets_ - 1)) == 0;
        setMask_ = numSets_ - 1;
        lines_.resize(total_lines);
        tags_.resize(total_lines, 0);
    }

    Line *
    find(std::uint64_t line_addr)
    {
        const std::uint64_t base = setOf(line_addr) *
                                   static_cast<std::uint64_t>(ways_);
        for (int w = 0; w < ways_; ++w) {
            if (tags_[base + static_cast<std::uint64_t>(w)] != line_addr)
                continue;
            Line &line = lines_[base + static_cast<std::uint64_t>(w)];
            if (isValid(line.state))
                return &line;
        }
        return nullptr;
    }

    void
    touch(Line &line)
    {
        line.lastUse = ++useClock_;
    }

    Line &
    victim(std::uint64_t line_addr)
    {
        const std::uint64_t set = setOf(line_addr);
        Line *lru = &lines_[set * ways_];
        for (int w = 0; w < ways_; ++w) {
            Line &line = lines_[set * ways_ + w];
            if (!isValid(line.state))
                return line;
            if (line.lastUse < lru->lastUse)
                lru = &line;
        }
        return *lru;
    }

    template <typename BusyPred>
    Line &
    victimWhere(std::uint64_t line_addr, BusyPred busy)
    {
        const std::uint64_t set = setOf(line_addr);
        Line *const base = &lines_[set * static_cast<std::uint64_t>(ways_)];
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

    void
    install(Line &line, std::uint64_t line_addr, CacheState state)
    {
        line.tag = line_addr;
        tags_[static_cast<std::size_t>(&line - lines_.data())] = line_addr;
        line.state = state;
        line.meta = Meta{};
        touch(line);
    }

    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const auto &line : lines_) {
            if (isValid(line.state))
                ++n;
        }
        return n;
    }

  private:
    std::uint64_t
    setOf(std::uint64_t line_addr) const
    {
        return pow2Sets_ ? (line_addr & setMask_) : (line_addr % numSets_);
    }

    int ways_;
    std::uint64_t numSets_;
    std::uint64_t setMask_ = 0;
    bool pow2Sets_ = false;
    std::vector<Line> lines_;
    std::vector<std::uint64_t> tags_;
    std::uint64_t useClock_ = 0;
};

/** Shaped like ClusterNode's L2 metadata. */
struct L2LikeMeta
{
    std::uint8_t l1Mask = 0;
    bool operator==(const L2LikeMeta &) const = default;
};

/** Shaped like L3Bank's directory metadata (no owner is -1). */
struct DirLikeMeta
{
    SharerMask sharers;
    std::int16_t owner = -1;
    bool dirty = false;
    bool operator==(const DirLikeMeta &) const = default;
};

void scribble(NoMeta &, std::uint64_t) {}

void
scribble(L2LikeMeta &m, std::uint64_t r)
{
    m.l1Mask |= static_cast<std::uint8_t>(1u << (r % 8));
}

void
scribble(DirLikeMeta &m, std::uint64_t r)
{
    m.sharers.set(static_cast<int>(r % kMaxClusters));
    m.owner = (r >> 8) % 3 == 0
                  ? std::int16_t{-1}
                  : static_cast<std::int16_t>((r >> 16) % kMaxClusters);
    m.dirty = ((r >> 32) & 1) != 0;
}

template <typename Meta>
bool
sameMeta(const Meta &a, const Meta &b)
{
    if constexpr (std::is_empty_v<Meta>)
        return true;
    else
        return a == b;
}

/** Install a valid line with metadata in every way of every set. */
template <typename Meta>
void
fillEverySet(CacheArray<Meta> &arr, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::uint64_t set = 0; set < arr.numSets(); ++set) {
        for (int w = 0; w < arr.ways(); ++w) {
            const std::uint64_t addr =
                set + static_cast<std::uint64_t>(w) * arr.numSets();
            auto &line = arr.victim(addr);
            arr.install(line, addr, CacheState::M);
            scribble(line.meta, rng.next());
        }
    }
    ASSERT_EQ(arr.validLines(), arr.capacityLines());
}

/**
 * Run `ops` random operations on a lazy and an eager array of the same
 * geometry in lockstep, as ClusterNode and L3Bank drive them: lookups,
 * victim selection and install, busy-aware victims, LRU touches,
 * invalidation and metadata writes through returned pointers, resets
 * and occupancy counts.  Every returned line must be the same way and
 * hold the same tag, state, LRU stamp and metadata.  A reset destroys
 * both arrays and builds them again; the lazy one gets its block back.
 * With `recycled`, the lazy array starts on the block of an array that
 * had every way of every set valid.
 */
template <typename Meta>
void
runLockstep(std::uint64_t total_lines, int ways, std::uint64_t seed,
            int ops, bool recycled)
{
    SCOPED_TRACE(testing::Message()
                 << total_lines << " lines, " << ways << " ways, seed "
                 << seed << (recycled ? ", recycled block" : ""));
    using LazyLine = typename CacheArray<Meta>::Line;
    using EagerLine = typename EagerCacheArray<Meta>::Line;
    std::optional<CacheArray<Meta>> lazy;
    std::optional<EagerCacheArray<Meta>> eager;
    const void *stale_block = nullptr;
    if (recycled) {
        CacheArray<Meta> filled(total_lines, ways);
        fillEverySet(filled, ~seed);
        ASSERT_FALSE(testing::Test::HasFatalFailure());
        stale_block = filled.storageBlock();
    }

    // Both arrays keep their lines in one block, so a line's index is its
    // offset from way 0 of set 0, which a fresh array's victim(0) is.
    const LazyLine *lazy0 = nullptr;
    const EagerLine *eager0 = nullptr;
    const auto rebuild = [&] {
        lazy.emplace(total_lines, ways);
        eager.emplace(total_lines, ways);
        lazy0 = &lazy->victim(0);
        eager0 = &eager->victim(0);
    };
    rebuild();
    if (recycled) {
        ASSERT_EQ(lazy->storageBlock(), stale_block);
    }

    const auto same = [&](const LazyLine *a,
                          const EagerLine *b) -> testing::AssertionResult {
        if (!a || !b) {
            if (!a && !b)
                return testing::AssertionSuccess();
            return testing::AssertionFailure()
                   << "lazy " << (a ? "hit" : "missed") << ", eager "
                   << (b ? "hit" : "missed");
        }
        if (a - lazy0 != b - eager0)
            return testing::AssertionFailure()
                   << "way index " << (a - lazy0) << " vs " << (b - eager0);
        if (a->tag != b->tag || a->state != b->state ||
            a->lastUse != b->lastUse || !sameMeta(a->meta, b->meta))
            return testing::AssertionFailure()
                   << "line " << (a - lazy0) << ": tag " << a->tag << "/"
                   << b->tag << " state " << toString(a->state) << "/"
                   << toString(b->state) << " lastUse " << a->lastUse << "/"
                   << b->lastUse;
        return testing::AssertionSuccess();
    };

    Rng rng(seed);
    const auto draw_addr = [&]() -> std::uint64_t {
        switch (rng.below(16)) {
        case 0:
            return 0; // matches the zeroed shadow tags of fresh ways
        case 1:
            return (std::uint64_t{1} << 40) + rng.below(total_lines);
        default:
            return rng.below(4 * total_lines);
        }
    };
    const auto draw_state = [&] {
        return static_cast<CacheState>(1 + rng.below(5)); // S..N
    };

    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(testing::Message() << "op " << op);
        const std::uint64_t addr = draw_addr();
        const std::uint64_t kind = rng.below(1000);
        if (kind < 250) {
            ASSERT_TRUE(same(lazy->find(addr), eager->find(addr)));
        } else if (kind < 500) {
            LazyLine &a = lazy->victim(addr);
            EagerLine &b = eager->victim(addr);
            ASSERT_TRUE(same(&a, &b));
            const CacheState state = draw_state();
            lazy->install(a, addr, state);
            eager->install(b, addr, state);
            ASSERT_TRUE(same(lazy->find(addr), eager->find(addr)));
        } else if (kind < 650) {
            // Busy tags: none, some or (the plain-LRU fallback) all.
            const std::uint64_t salt = rng.next();
            const std::uint64_t busy_in_4 = rng.below(5);
            const auto busy = [&](std::uint64_t tag) {
                return Rng(tag ^ salt).below(4) < busy_in_4;
            };
            LazyLine &a = lazy->victimWhere(addr, busy);
            EagerLine &b = eager->victimWhere(addr, busy);
            ASSERT_TRUE(same(&a, &b));
            const CacheState state = draw_state();
            lazy->install(a, addr, state);
            eager->install(b, addr, state);
        } else if (kind < 750) {
            LazyLine *a = lazy->find(addr);
            EagerLine *b = eager->find(addr);
            ASSERT_TRUE(same(a, b));
            if (a) {
                lazy->touch(*a);
                eager->touch(*b);
                ASSERT_TRUE(same(a, b));
            }
        } else if (kind < 850) {
            // Invalidate through a returned pointer, leaving the shadow
            // tag stale, as evictions and invalidation probes do.
            LazyLine *a = lazy->find(addr);
            EagerLine *b = eager->find(addr);
            if (kind < 800 && !a && !b) {
                a = &lazy->victim(addr);
                b = &eager->victim(addr);
            }
            ASSERT_TRUE(same(a, b));
            if (a) {
                a->state = CacheState::I;
                b->state = CacheState::I;
            }
        } else if (kind < 950) {
            LazyLine *a = lazy->find(addr);
            EagerLine *b = eager->find(addr);
            ASSERT_TRUE(same(a, b));
            if (a) {
                const std::uint64_t r = rng.next();
                scribble(a->meta, r);
                scribble(b->meta, r);
                ASSERT_TRUE(same(a, b));
            }
        } else if (kind < 999) {
            ASSERT_EQ(lazy->validLines(), eager->validLines());
        } else if (rng.below(4) == 0) {
            const void *const block = lazy->storageBlock();
            rebuild();
            ASSERT_EQ(lazy->storageBlock(), block);
            ASSERT_EQ(lazy->builtWays(), 1u); // victim(0)'s way
        }
    }

    for (std::uint64_t addr = 0; addr < 4 * total_lines; ++addr)
        ASSERT_TRUE(same(lazy->find(addr), eager->find(addr))) << addr;
    EXPECT_EQ(lazy->validLines(), eager->validLines());
    EXPECT_LE(lazy->builtWays(), lazy->capacityLines());
    const void *const block = lazy->storageBlock();
    rebuild();
    EXPECT_EQ(lazy->storageBlock(), block);
    EXPECT_EQ(lazy->validLines(), 0u);
    EXPECT_EQ(eager->validLines(), 0u);
}

/** Geometries with power-of-two and odd set counts at 1/2/8/16 ways and
 *  at the validated maximum of 64, where the built-way count and
 *  victimWhere()'s `tried[64]` reach their bounds. */
struct Geometry
{
    std::uint64_t lines;
    int ways;
};
constexpr Geometry kGeometries[] = {
    {64, 1},  {37, 1},  {64, 2},   {42, 2},
    {128, 8}, {104, 8}, {256, 16}, {176, 16},
    {512, 64}, {448, 64},
};
constexpr int kLockstepOps = 12000;

template <typename Meta>
void
runEveryGeometry(std::uint64_t seed, bool recycled = false)
{
    for (const Geometry &g : kGeometries) {
        runLockstep<Meta>(g.lines, g.ways, seed++, kLockstepOps, recycled);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CacheArrayLockstep, MatchesEagerArrayWithoutMeta)
{
    runEveryGeometry<NoMeta>(100);
}

TEST(CacheArrayLockstep, MatchesEagerArrayWithL2Meta)
{
    runEveryGeometry<L2LikeMeta>(200);
}

TEST(CacheArrayLockstep, MatchesEagerArrayWithDirMeta)
{
    runEveryGeometry<DirLikeMeta>(300);
}

// A recycled block holds the last array's lines: every way of every set
// valid, with metadata.  The new array must still match a fresh eager
// one, so a way must be built before anything reads it.

TEST(CacheArrayLockstep, RecycledBlockMatchesEagerArrayWithoutMeta)
{
    runEveryGeometry<NoMeta>(400, true);
}

TEST(CacheArrayLockstep, RecycledBlockMatchesEagerArrayWithL2Meta)
{
    runEveryGeometry<L2LikeMeta>(500, true);
}

TEST(CacheArrayLockstep, RecycledBlockMatchesEagerArrayWithDirMeta)
{
    runEveryGeometry<DirLikeMeta>(600, true);
}

} // namespace
} // namespace cache
} // namespace pearl
