/**
 * @file
 * On-chip laser bank with fast turn-on and wavelength-state switching.
 *
 * Each PEARL router owns four banks of 16 InP Fabry-Perot lasers feeding
 * its data waveguide.  Power scaling lights a subset (the five WlStates);
 * switching *up* incurs a stabilization delay (2 ns by default, i.e. 4
 * network cycles at 2 GHz) during which no data can be transmitted on the
 * waveguide (Section IV-C sensitivity study).  Switching down is
 * immediate.  The bank integrates laser energy and tracks the residency
 * of every state for Figure 8.
 */

#ifndef PEARL_PHOTONIC_LASER_HPP
#define PEARL_PHOTONIC_LASER_HPP

#include <array>
#include <cstdint>

#include "photonic/power_model.hpp"
#include "photonic/wl_state.hpp"

namespace pearl {
namespace photonic {

/** The laser array of one router. */
class LaserBank
{
  public:
    /**
     * @param model          power model supplying per-state laser power.
     * @param turn_on_cycles stabilization delay for an upward switch,
     *                       in network cycles.
     * @param initial        initial wavelength state.
     */
    LaserBank(const PowerModel &model, std::uint64_t turn_on_cycles,
              WlState initial = WlState::WL64)
        : model_(&model), turnOnCycles_(turn_on_cycles), state_(initial)
    {}

    /** Current wavelength state. */
    WlState state() const { return state_; }

    /**
     * Request a state change at `now`.  Upward switches start a
     * stabilization window during which `stable()` is false; downward
     * switches (and no-ops) complete immediately.
     */
    void
    requestState(WlState next, std::uint64_t now)
    {
        if (next == state_)
            return;
        if (indexOf(next) > indexOf(state_)) {
            // Newly lit lasers need to stabilise; the already-lit banks
            // could keep transmitting, but the serializer reconfigures
            // with them, so the link is treated as dark for the window.
            stableAt_ = now + turnOnCycles_;
            ++upSwitches_;
        } else {
            ++downSwitches_;
        }
        state_ = next;
    }

    /** True when the waveguide can carry data at `now`. */
    bool
    stable(std::uint64_t now) const
    {
        return now >= stableAt_;
    }

    /**
     * Account one cycle of laser operation at `cycle_seconds` per cycle.
     * Call exactly once per network cycle.
     */
    void
    tick(double cycle_seconds)
    {
        energyJ_ += model_->laserPowerW(state_) * cycle_seconds;
        ++residency_[static_cast<std::size_t>(indexOf(state_))];
        ++cycles_;
    }

    /** Integrated laser energy in joules. */
    double energyJ() const { return energyJ_; }

    /** Average laser power in watts over the ticked interval. */
    double
    averagePowerW(double cycle_seconds) const
    {
        return cycles_ ? energyJ_ / (cycles_ * cycle_seconds) : 0.0;
    }

    /** Fraction of ticked cycles spent in `s` (Figure 8). */
    double
    residency(WlState s) const
    {
        const auto ticks = residency_[static_cast<std::size_t>(indexOf(s))];
        return cycles_ ? static_cast<double>(ticks) /
                             static_cast<double>(cycles_)
                       : 0.0;
    }

    std::uint64_t upSwitches() const { return upSwitches_; }
    std::uint64_t downSwitches() const { return downSwitches_; }
    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t turnOnCycles() const { return turnOnCycles_; }

    void
    resetStats()
    {
        energyJ_ = 0.0;
        cycles_ = 0;
        upSwitches_ = downSwitches_ = 0;
        residency_ = {};
    }

  private:
    const PowerModel *model_;
    std::uint64_t turnOnCycles_;
    WlState state_;
    std::uint64_t stableAt_ = 0;
    double energyJ_ = 0.0;
    std::uint64_t cycles_ = 0;
    std::uint64_t upSwitches_ = 0;
    std::uint64_t downSwitches_ = 0;
    /** Ticked cycles per state, by indexOf(); they sum to cycles_. */
    std::array<std::uint64_t, kNumWlStates> residency_ = {};
};

} // namespace photonic
} // namespace pearl

#endif // PEARL_PHOTONIC_LASER_HPP
