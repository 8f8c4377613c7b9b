/**
 * @file
 * Per-core synthetic memory-demand generator.
 *
 * Each core (CPU core or GPU compute unit) runs a two-state Markov burst
 * process: in the ON phase it issues memory accesses with the profile's
 * `accessRateOn` probability per network cycle, in the OFF phase with
 * `accessRateOff`.  Addresses are cache-line granular and mix streaming,
 * random reuse within the working set, and accesses to a globally shared
 * region that drives cross-cluster coherence.
 */

#ifndef PEARL_TRAFFIC_GENERATOR_HPP
#define PEARL_TRAFFIC_GENERATOR_HPP

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "traffic/profile.hpp"

namespace pearl {
namespace traffic {

/** One memory access produced by a core. */
struct MemAccess
{
    std::uint64_t lineAddr = 0; //!< cache-line address (line granularity)
    bool write = false;
    bool instr = false;         //!< instruction fetch (CPU L1I)
};

/** Address-space layout constants shared by all generators. */
struct AddressSpace
{
    /** Private region base for a core: distinct high bits per core. */
    static std::uint64_t
    privateBase(int global_core_id)
    {
        return (static_cast<std::uint64_t>(global_core_id) + 1) << 32;
    }

    /** Shared region base per core type (CPU and GPU regions differ). */
    static std::uint64_t
    sharedBase(sim::CoreType t)
    {
        return t == sim::CoreType::CPU ? (1ULL << 60) : (1ULL << 61);
    }

    /** Shared region size in lines (128 kB): small enough that the
     *  chip-wide access volume produces real reuse and contention. */
    static constexpr std::uint64_t kSharedLines = 2048;
};

/**
 * Chip-wide program phase shared by every core of one type.
 *
 * Real heterogeneous workloads are phase-structured: GPU kernels launch
 * across all compute units at once and CPU programs synchronise at
 * barriers, so the memory demand of all clusters rises and falls
 * *together*.  This global ON/OFF Markov process (parameters from the
 * benchmark profile) modulates every core's rate; the per-core Bernoulli
 * draw adds local jitter on top.
 */
class GlobalPhase
{
  public:
    GlobalPhase(double p_on_to_off, double p_off_to_on, Rng rng)
        : pOnToOff_(p_on_to_off), pOffToOn_(p_off_to_on), rng_(rng)
    {
        const double denom = pOnToOff_ + pOffToOn_;
        on_ = rng_.chance(denom > 0.0 ? pOffToOn_ / denom : 1.0);
    }

    /** Construct from a profile's burst parameters. */
    GlobalPhase(const BenchmarkProfile &profile, Rng rng)
        : GlobalPhase(profile.pOnToOff, profile.pOffToOn, rng)
    {}

    /** Advance one cycle (call exactly once per network cycle). */
    void
    tick()
    {
        if (on_) {
            if (rng_.chanceT(tOnToOff_))
                on_ = false;
        } else {
            if (rng_.chanceT(tOffToOn_))
                on_ = true;
        }
    }

    bool on() const { return on_; }

  private:
    double pOnToOff_;
    double pOffToOn_;
    // chanceThreshold() images of the probabilities: the per-cycle
    // transition draws run on the integer fast path (same stream).
    std::uint64_t tOnToOff_ = Rng::chanceThreshold(pOnToOff_);
    std::uint64_t tOffToOn_ = Rng::chanceThreshold(pOffToOn_);
    Rng rng_;
    bool on_;
};

/** Markov-modulated demand generator for one core. */
class alignas(64) CoreDemandGenerator
{
  public:
    /**
     * @param profile        benchmark profile driving the statistics.
     * @param global_core_id unique core id (private address region).
     * @param rng            forked stream owned by this generator.
     * @param phase          optional chip-wide phase; when given, the
     *                       burst state is the shared phase instead of a
     *                       private Markov chain.
     * @param shared_lines   shared-region size in lines.  Scale-out runs
     *                       weak-scale this with the core count (see
     *                       core::makeSystemConfig) so per-line coherence
     *                       contention stays constant across chip sizes.
     */
    CoreDemandGenerator(const BenchmarkProfile &profile, int global_core_id,
                        Rng rng, const GlobalPhase *phase = nullptr,
                        std::uint64_t shared_lines =
                            AddressSpace::kSharedLines)
        : rng_(rng), tRateOn_(Rng::chanceThreshold(profile.accessRateOn)),
          tRateOff_(Rng::chanceThreshold(profile.accessRateOff)),
          phase_(phase), tOnToOff_(Rng::chanceThreshold(profile.pOnToOff)),
          tOffToOn_(Rng::chanceThreshold(profile.pOffToOn)),
          privateBase_(AddressSpace::privateBase(global_core_id)),
          sharedBase_(AddressSpace::sharedBase(profile.coreType)),
          sharedLines_(shared_lines), profile_(profile)
    {
        on_ = rng_.chance(profile_.onFraction());
    }

    /**
     * The per-cycle issue draw: burst-phase transition (private mode)
     * plus the Bernoulli issue decision.  Callers that batch several
     * generators call draw() for each first and generate() afterwards —
     * the RNG streams are per-generator, so interleaving draws across
     * generators leaves every stream identical while letting the
     * otherwise-serial xoshiro dependency chains overlap.
     */
    bool
    draw()
    {
        bool on;
        if (phase_) {
            on = phase_->on();
        } else {
            // Private burst-phase transition, then the issue draw.
            if (on_) {
                if (rng_.chanceT(tOnToOff_))
                    on_ = false;
            } else {
                if (rng_.chanceT(tOffToOn_))
                    on_ = true;
            }
            on = on_;
        }
        return rng_.chanceT(on ? tRateOn_ : tRateOff_);
    }

    /** Produce the access for a cycle whose draw() returned true. */
    MemAccess generate() { return generateAccess(); }

    /**
     * Advance one network cycle.
     * @return an access if the core issued one this cycle.
     */
    std::optional<MemAccess>
    tick()
    {
        if (!draw())
            return std::nullopt;
        return generateAccess();
    }

    const BenchmarkProfile &profile() const { return profile_; }

  private:
    MemAccess
    generateAccess()
    {
        MemAccess acc;
        acc.instr = rng_.chance(profile_.instrFraction);
        acc.write = !acc.instr && rng_.chance(profile_.writeFraction);

        if (!acc.instr && rng_.chance(profile_.sharedFraction)) {
            // Shared-region access: uniform over the per-type region.
            acc.lineAddr = sharedBase_ + rng_.below(sharedLines_);
            return acc;
        }

        const std::uint64_t ws = profile_.workingSetLines;
        if (rng_.chance(profile_.streamFraction)) {
            // Streaming: word-granular walk — several consecutive
            // accesses land in the same 64 B line before advancing, so
            // the L1 filters streams the way real caches do.
            if (++streamWordCnt_ >= kWordsPerLine) {
                streamWordCnt_ = 0;
                streamPtr_ = (streamPtr_ + 1) % ws;
            }
            acc.lineAddr = privateBase_ + streamPtr_;
        } else {
            // Reuse: uniform-random within the working set.
            acc.lineAddr = privateBase_ + rng_.below(ws);
        }
        // Instruction fetches use a dedicated slice of the private region
        // so L1I and L1D don't thrash each other.
        if (acc.instr)
            acc.lineAddr |= (1ULL << 28);
        return acc;
    }

    /** Word accesses per cache line on a streaming walk. */
    static constexpr int kWordsPerLine = 8;

    // Member order is the hot-path cache layout: with 96 generators
    // walked every network cycle, the common no-access tick must touch
    // one line per generator.  The RNG state, the rate thresholds (the
    // chanceThreshold() images of the per-cycle draw probabilities —
    // the integer fast path consumes the identical RNG stream), the
    // phase pointer and the burst flag together fit the first 64-byte
    // line of the alignas(64) object; everything generateAccess() needs
    // (the rare path) follows.
    Rng rng_;
    std::uint64_t tRateOn_;
    std::uint64_t tRateOff_;
    const GlobalPhase *phase_;
    bool on_ = false;
    std::uint64_t tOnToOff_;
    std::uint64_t tOffToOn_;
    std::uint64_t privateBase_;
    std::uint64_t sharedBase_;
    std::uint64_t sharedLines_;
    std::uint64_t streamPtr_ = 0;
    int streamWordCnt_ = 0;
    BenchmarkProfile profile_;
};

} // namespace traffic
} // namespace pearl

#endif // PEARL_TRAFFIC_GENERATOR_HPP
