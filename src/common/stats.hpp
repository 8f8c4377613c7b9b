/**
 * @file
 * Lightweight statistics primitives shared by all subsystems.
 *
 * RunningStat keeps an online mean/variance (Welford) without storing
 * samples; DiscreteHistogram buckets values for distribution-shaped
 * results such as the wavelength-state residency of Figure 8.
 */

#ifndef PEARL_COMMON_STATS_HPP
#define PEARL_COMMON_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/log.hpp"

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

/** Discrete histogram keyed by integer bucket (e.g. wavelength state). */
class DiscreteHistogram
{
  public:
    void
    add(int bucket, std::uint64_t weight = 1)
    {
        counts_[bucket] += weight;
        total_ += weight;
    }

    std::uint64_t total() const { return total_; }

    std::uint64_t
    count(int bucket) const
    {
        auto it = counts_.find(bucket);
        return it == counts_.end() ? 0 : it->second;
    }

    /** Fraction of total weight in `bucket`; 0 when empty. */
    double
    fraction(int bucket) const
    {
        return total_ ? static_cast<double>(count(bucket)) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    const std::map<int, std::uint64_t> &buckets() const { return counts_; }

    void
    reset()
    {
        counts_.clear();
        total_ = 0;
    }

  private:
    std::map<int, std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace pearl

#endif // PEARL_COMMON_STATS_HPP
