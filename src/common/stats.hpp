/**
 * @file
 * Lightweight statistics primitives shared by all subsystems.
 *
 * RunningStat keeps an online mean/variance (Welford) without storing
 * samples.
 */

#ifndef PEARL_COMMON_STATS_HPP
#define PEARL_COMMON_STATS_HPP

#include <algorithm>
#include <cstdint>

namespace pearl {

/** Online mean / variance / extrema accumulator (Welford's algorithm). */
class RunningStat
{
  public:
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = n_ == 1 ? x : std::min(min_, x);
        max_ = n_ == 1 ? x : std::max(max_, x);
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    void
    reset()
    {
        n_ = 0;
        mean_ = m2_ = min_ = max_ = 0.0;
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace pearl

#endif // PEARL_COMMON_STATS_HPP
