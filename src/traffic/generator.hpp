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

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.hpp"
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
 *
 * The process takes one transition draw per cycle on its own stream,
 * and nothing a core or the memory system does feeds back into it, so
 * its state at every cycle is fixed by the seed.  at() reads it ahead
 * of time: it takes the transition draws in cycle order, exactly the
 * draws tick() takes, and keeps the cycles at which the state flipped.
 * tick() and on() step the same process one cycle at a time; they are
 * the reference that verify::RefCluster and the traffic tests check
 * at() against.  One instance is either ticked or read through at(),
 * never both.
 */
class GlobalPhase
{
  public:
    GlobalPhase(double p_on_to_off, double p_off_to_on, Rng rng)
        : pOnToOff_(p_on_to_off), pOffToOn_(p_off_to_on), rng_(rng)
    {
        const double denom = pOnToOff_ + pOffToOn_;
        on_ = rng_.chance(denom > 0.0 ? pOffToOn_ / denom : 1.0);
        initialOn_ = on_;
    }

    /** Construct from a profile's burst parameters. */
    GlobalPhase(const BenchmarkProfile &profile, Rng rng)
        : GlobalPhase(profile.pOnToOff, profile.pOffToOn, rng)
    {}

    /** How far at() draws past the asked cycle when no flip comes
     *  sooner. */
    static constexpr std::uint64_t kLookAhead = 4096;

    /** The phase over a run of cycles that share one state. */
    struct Run
    {
        bool on;
        /** First cycle past the run that at() has not placed in it:
         *  the next flip, or the end of the drawn cycles. */
        std::uint64_t end;
    };

    /**
     * The state at cycle `c`, and where that run ends.  The state at
     * cycle c is the state after c + 1 tick()s: HeteroSystem's cycle
     * loop ticked the phase before the clusters read it.  When no flip
     * after c is drawn yet, draws ahead until one is, or to
     * c + kLookAhead.
     */
    Run
    at(std::uint64_t c)
    {
        if (flips_.empty() || flips_.back() <= c)
            drawAhead(c);
        const auto next = std::upper_bound(flips_.begin(), flips_.end(), c);
        const bool odd = ((next - flips_.begin()) & 1) != 0;
        return {initialOn_ != odd, next != flips_.end() ? *next : drawn_};
    }

    /** Reference path: advance one cycle (call exactly once per network
     *  cycle, before reading on()). */
    void
    tick()
    {
        PEARL_ASSERT(!lookedAhead_, "GlobalPhase: tick() after at()");
        transition();
        ++drawn_;
    }

    /** Reference path: the state after the last tick(). */
    bool
    on() const
    {
        PEARL_ASSERT(!lookedAhead_, "GlobalPhase: on() after at()");
        return on_;
    }

  private:
    /** One cycle's transition draw. */
    void
    transition()
    {
        if (on_) {
            if (rng_.chanceT(tOnToOff_))
                on_ = false;
        } else {
            if (rng_.chanceT(tOffToOn_))
                on_ = true;
        }
    }

    /** Draw cycles from drawn_ on: past c, then on to the first flip
     *  after c or to c + kLookAhead, whichever comes first. */
    void
    drawAhead(std::uint64_t c)
    {
        PEARL_ASSERT(lookedAhead_ || drawn_ == 0,
                     "GlobalPhase: at() after tick()");
        lookedAhead_ = true;
        const std::uint64_t stop = c + kLookAhead;
        while (drawn_ < stop) {
            const bool was = on_;
            transition();
            const std::uint64_t cycle = drawn_++;
            if (on_ != was) {
                flips_.push_back(cycle);
                if (cycle > c)
                    return;
            }
        }
    }

    double pOnToOff_;
    double pOffToOn_;
    // chanceThreshold() images of the probabilities: the per-cycle
    // transition draws run on the integer fast path (same stream).
    std::uint64_t tOnToOff_ = Rng::chanceThreshold(pOnToOff_);
    std::uint64_t tOffToOn_ = Rng::chanceThreshold(pOffToOn_);
    Rng rng_;
    /** The state after the last transition draw taken. */
    bool on_;
    /** The state before cycle 0's draw. */
    bool initialOn_;
    bool lookedAhead_ = false;
    /** Cycles whose transition draw tick() or at() has taken:
     *  0 .. drawn_ - 1. */
    std::uint64_t drawn_ = 0;
    /** The drawn cycles whose draw flipped the state, ascending. */
    std::vector<std::uint64_t> flips_;
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
                        Rng rng, GlobalPhase *phase = nullptr,
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

    /** Where scan() stopped: the cycle of the last draw it took, and
     *  whether the core issues an access at that cycle. */
    struct Stop
    {
        std::uint64_t cycle;
        bool issues;
    };

    /** Cycles one scan() covers at most, so a core that never issues
     *  (a zero rate, or a phase that stays off) stops once per horizon
     *  instead of scanning forever. */
    static constexpr std::uint64_t kScanHorizon = 4096;

    /**
     * Take the per-cycle draws of cycles from, from + 1, ... in cycle
     * order, exactly the draws one draw() per cycle takes, and stop at
     * the first cycle whose issue draw fires or at
     * from + kScanHorizon - 1.  In private burst mode each cycle takes
     * its transition draw before its issue draw; with a shared phase the
     * state of cycle c is phase->at(c).  Call generate() for an issuing
     * stop before the next scan(), so the access takes the values right
     * after its issue draw, as tick() does.
     */
    Stop
    scan(std::uint64_t from)
    {
        const std::uint64_t last = from + kScanHorizon - 1;
        if (!phase_) {
            for (std::uint64_t c = from;; ++c) {
                if (privateDraw())
                    return {c, true};
                if (c == last)
                    return {c, false};
            }
        }
        std::uint64_t c = from;
        while (true) {
            const GlobalPhase::Run run = phase_->at(c);
            const std::uint64_t threshold = run.on ? tRateOn_ : tRateOff_;
            const std::uint64_t stop = std::min(run.end - 1, last);
            for (; c <= stop; ++c) {
                if (rng_.chanceT(threshold))
                    return {c, true};
            }
            if (c > last)
                return {last, false};
        }
    }

    /**
     * Reference path: one cycle's issue draw (the burst-phase transition
     * in private mode, then the Bernoulli issue decision), reading a
     * ticked phase through on().  verify::RefCluster and the traffic
     * tests check scan() against it.
     */
    bool
    draw()
    {
        if (!phase_)
            return privateDraw();
        return rng_.chanceT(phase_->on() ? tRateOn_ : tRateOff_);
    }

    /** Produce the access for a cycle whose draw() or scan() fired. */
    MemAccess generate() { return generateAccess(); }

    /**
     * Reference path: advance one network cycle with draw().
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
    /** Private burst-phase transition, then the issue draw. */
    bool
    privateDraw()
    {
        if (on_) {
            if (rng_.chanceT(tOnToOff_))
                on_ = false;
        } else {
            if (rng_.chanceT(tOffToOn_))
                on_ = true;
        }
        return rng_.chanceT(on_ ? tRateOn_ : tRateOff_);
    }

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

    // Member order is the scan's cache layout: the RNG state, the rate
    // thresholds (the chanceThreshold() images of the per-cycle draw
    // probabilities — the integer fast path consumes the identical RNG
    // stream), the phase pointer and the burst flag fit the first
    // 64-byte line of the alignas(64) object, so a scan's draw loop
    // touches one line; everything generateAccess() needs follows.
    Rng rng_;
    std::uint64_t tRateOn_;
    std::uint64_t tRateOff_;
    GlobalPhase *phase_;
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
