// Streaming statistics and exact sample quantiles.
//
// Used by the simulation metrics (mean frame delay, energy accounting
// cross-checks), by the off-line change-point characterization (the paper's
// histogram of ln P_max, Section 3.1, is read only for its high quantile, so
// SampleQuantiles keeps the samples and answers it exactly), and by the
// exponential-fit validation of Figure 6.
#pragma once

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dvs {

/// Numerically stable running mean / variance / extrema (Welford).  The
/// product reads max(); min() is kept for the tests that bound a sample.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  /// Mean of the samples; throws if empty.
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; throws if fewer than 2 samples.
  [[nodiscard]] double variance() const;
  /// sqrt(variance()).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double sum_ = 0.0;
};

/// Exact empirical quantile over a stored sample (for small sample sets
/// such as per-experiment delays).
class SampleQuantiles {
 public:
  void add(double x) { xs_.push_back(x); sorted_ = false; }
  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  /// q in [0,1]; nearest-rank with linear interpolation.  Throws if empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
};

/// Time-weighted average of a piecewise-constant signal, e.g. mean queue
/// length or mean power over simulated time.
class TimeWeightedStats {
 public:
  /// Records that the signal held `value` for duration `dt` (dt >= 0).
  void add(double value, double dt);

  [[nodiscard]] double total_time() const { return total_time_; }
  /// Time-weighted mean; throws if no time has been accumulated.
  [[nodiscard]] double mean() const;

 private:
  double weighted_sum_ = 0.0;
  double total_time_ = 0.0;
};

}  // namespace dvs
