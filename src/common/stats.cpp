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

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
}

void RunningStats::reset() { *this = RunningStats{}; }

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
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double TimeWeightedStats::mean() const {
  if (total_time_ <= 0.0) throw std::logic_error("TimeWeightedStats::mean(): no time accumulated");
  return weighted_sum_ / total_time_;
}

double TimeWeightedStats::min() const {
  if (total_time_ <= 0.0) throw std::logic_error("TimeWeightedStats::min(): no time accumulated");
  return min_;
}

double TimeWeightedStats::max() const {
  if (total_time_ <= 0.0) throw std::logic_error("TimeWeightedStats::max(): no time accumulated");
  return max_;
}

}  // namespace dvs
