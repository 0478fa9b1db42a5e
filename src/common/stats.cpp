#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dvs {

// ---- RunningStats ----------------------------------------------------------

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  sum_ += x;
}

double RunningStats::mean() const {
  if (n_ == 0) throw std::logic_error("RunningStats::mean(): no samples");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) throw std::logic_error("RunningStats::variance(): need >= 2 samples");
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  if (n_ == 0) throw std::logic_error("RunningStats::min(): no samples");
  return min_;
}

double RunningStats::max() const {
  if (n_ == 0) throw std::logic_error("RunningStats::max(): no samples");
  return max_;
}

// ---- SampleQuantiles ---------------------------------------------------------

double SampleQuantiles::quantile(double q) const {
  if (xs_.empty()) throw std::logic_error("SampleQuantiles::quantile(): empty");
  if (q < 0.0 || q > 1.0) throw std::domain_error("SampleQuantiles::quantile(): q in [0,1]");
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

// ---- TimeWeightedStats --------------------------------------------------------

void TimeWeightedStats::add(double value, double dt) {
  if (dt < 0.0) throw std::domain_error("TimeWeightedStats::add(): dt must be >= 0");
  if (dt == 0.0) return;
  weighted_sum_ += value * dt;
  total_time_ += dt;
}

double TimeWeightedStats::mean() const {
  if (total_time_ <= 0.0) throw std::logic_error("TimeWeightedStats::mean(): no time accumulated");
  return weighted_sum_ / total_time_;
}

}  // namespace dvs
