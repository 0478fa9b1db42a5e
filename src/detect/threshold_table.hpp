// Off-line characterization of the change-point detection threshold
// (Section 3.1): "Off-line characterization is done using stochastic
// simulation of a set of possible rates to obtain the value of ln P_max
// that is sufficient to detect the change in rate.  The results are
// accumulated in a histogram, and then the value of maximum likelihood
// ratio that gives very high probability that the rate has changed is
// chosen for every pair of rates under consideration.  In our work we
// selected 99.5% likelihood."
//
// Implementation note: the statistic is scale-invariant.  For a window of
// m samples x_j ~ Exp(lambda_o) and a candidate change lambda_o -> lambda_n
// with ratio r = lambda_n/lambda_o,
//
//   ln P_max(k) = (m-k) ln r - (r-1) * sum_{j>k} (lambda_o x_j),
//
// and lambda_o * x_j ~ Exp(1).  The null distribution therefore depends
// only on (m, r, candidate-k set), so one Monte-Carlo pass per *ratio*
// covers every rate pair with that ratio; thresholds for intermediate
// ratios interpolate in log-ratio space.
//
// Characterization cost.  Each ratio's quantile, and the scan margin
// below, take mc_windows null windows of m samples, but a window's
// statistic reads only its ~m/check_interval candidate suffix sums, and a
// suffix sum of x_j = -ln y_j (y_j = 1 - u_j, as Rng::exponential draws
// it) is -ln of the suffix product of y_j.  So the constructor makes one
// fast pass per window: it snapshots the generator, draws y_j with the same
// single next_u64 per sample, forms the suffix product from the end
// (rescaled by exact powers of two, 2^600 at a time, with the exponent
// counted) and takes one logarithm per candidate instead of one per
// sample.
//
// Bound.  With u = 2^-53 and S the whole-window sum: the product's
// relative error is at most ~m u, its rescaled logarithm (|ln p| <= 453)
// and the exponent term add ~u (3 S + 1400), so the fast sum is within
// u (3 S + m + 1400) of the true one; the exact path's sum of m rounded
// logarithms is within u (m + 1) S of it.  Carried through the ln P
// expression (and, for the margin, the threshold subtraction), every fast
// value v is within
//
//   eps (1 + |v| + |r - 1| (1 + S) + m |ln r| [+ max |threshold|]),
//   eps = 2^-40 (m + 1024)  (~1e-9 at m = 100),
//
// of the exact one: at least 2^12 times that error estimate.
//
// Exact where it matters.  SampleQuantiles::quantile(q) reads only the
// sorted ranks lo = floor(q (n-1)) and lo + 1, both among the top
// k = n - lo values.  With t the k-th largest lower bound, at least k
// windows are exactly >= t, and every window whose upper bound is below t
// is below t exactly and approximately.  Each window whose upper bound
// reaches t is redrawn from its snapshot and scored exactly by
// max_log_likelihood_ratio; the rest enter the same SampleQuantiles with
// their fast values.  The top k values are then the exact ones and the
// thresholds come out bit-identical.  The bound is far below the gaps
// between neighbouring order statistics, so about k windows per quantile
// are recomputed (16 of 3000 at the default confidence).
//
// The on-line detector scans the same fixed ratio grid on every check, so
// the table also precomputes one scan row per grid ratio, {r, ln r,
// threshold(r)}.  A check then costs one multiply-add per (ratio,
// candidate) and no logarithm or interpolation.  The rows are built once by
// the constructor and are immutable afterwards, so a table shared across
// threads (detect/table_cache.hpp) needs no further synchronisation.
//
// Recorded characterizations.  A table is fully determined by its config,
// its thresholds and its scan margin: the ratio grid and the scan rows are
// derived from them.  So a characterization run once off-line can be
// shipped as those 2 grid_points + 1 numbers and rebuilt without any
// Monte-Carlo; detect/table_cache.cpp does that for the built-in configs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace dvs::detect {

/// Parameters shared by the threshold characterization and the on-line
/// detector (they must agree, or the false-positive calibration is wrong).
struct ChangePointConfig {
  std::size_t window = 100;        ///< m: samples kept for detection
  std::size_t check_interval = 10; ///< detection cadence and k granularity
  std::size_t min_tail = 5;        ///< smallest post-change tail considered
  double confidence = 0.995;       ///< paper: 99.5% likelihood
  /// Ratio grid for characterization: r = grid_step^j, j = 1..grid_points
  /// (and reciprocals for rate decreases).
  double grid_step = 1.25;
  std::size_t grid_points = 10;    ///< covers ratios up to ~9.3x each way
  std::size_t mc_windows = 3000;   ///< Monte-Carlo windows per ratio
  std::uint64_t mc_seed = 0x5eedu;

  /// Value equality: configs that compare equal produce bit-identical
  /// tables, which is what the process-wide cache (detect/table_cache.hpp)
  /// keys on.
  friend bool operator==(const ChangePointConfig&,
                         const ChangePointConfig&) = default;
};

/// The maximum of ln P over candidate change positions for one window of
/// normalized samples (lambda_o * x_j) against ratio r.  Candidate change
/// positions run over multiples of `check_interval` leaving at least
/// `min_tail` samples after the change.  Shared by characterization and the
/// on-line detector.
double max_log_likelihood_ratio(const std::vector<double>& normalized_window,
                                double ratio, const ChangePointConfig& cfg);

/// Table of detection thresholds indexed by rate ratio.
class ThresholdTable {
 public:
  /// One ratio of the on-line scan with its per-table invariants.
  struct ScanRow {
    double ratio;
    double log_ratio;  ///< std::log(ratio)
    double threshold;  ///< threshold_for_ratio(ratio)
  };

  /// Runs the Monte-Carlo characterization (deterministic given cfg).
  explicit ThresholdTable(const ChangePointConfig& cfg);

  /// Rebuilds a recorded characterization of `cfg` without the Monte-Carlo:
  /// `thresholds` are the entries' thresholds ascending by ratio (one per
  /// grid ratio) and `scan_margin` the scan margin.  The ratio grid and the
  /// scan rows come from the same code as the characterizing constructor's,
  /// so the table is bitwise equal to ThresholdTable{cfg} when the numbers
  /// were recorded from it.
  ThresholdTable(const ChangePointConfig& cfg, std::span<const double> thresholds,
                 double scan_margin);

  /// Threshold for an arbitrary ratio r (> 0, != 1): interpolated in
  /// log-ratio space and clamped to the characterized range.
  [[nodiscard]] double threshold_for_ratio(double r) const;

  /// Scan-level margin: the on-line detector evaluates *every* grid ratio
  /// each check, so requiring stat > threshold per ratio alone would
  /// multiply the false-positive rate by the grid size.  This is the
  /// `confidence` quantile of max_r (stat(r) - threshold(r)) under the
  /// null; a change is declared only when the best margin exceeds it.
  [[nodiscard]] double scan_margin() const { return scan_margin_; }

  /// All candidate ratios the detector scans (grid powers and reciprocals).
  [[nodiscard]] const std::vector<double>& ratios() const { return ratios_; }

  /// The detector's scan rows, one per ratio in ratios() order.
  [[nodiscard]] const std::vector<ScanRow>& scan_rows() const { return scan_rows_; }

  /// The characterized (ratio, threshold) pairs, ascending by ratio.
  [[nodiscard]] const std::vector<std::pair<double, double>>& entries() const {
    return entries_;
  }

  [[nodiscard]] const ChangePointConfig& config() const { return cfg_; }

 private:
  /// Fills scan_rows_ from ratios_ and entries_.
  void build_scan_rows();

  ChangePointConfig cfg_;
  std::vector<std::pair<double, double>> entries_;  ///< (ratio, threshold)
  std::vector<double> ratios_;
  std::vector<ScanRow> scan_rows_;  ///< derived from ratios_ and entries_
  double scan_margin_ = 0.0;
};

}  // namespace dvs::detect
