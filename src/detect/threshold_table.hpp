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
// The on-line detector scans the same fixed ratio grid on every check, so
// the table also precomputes one scan row per grid ratio, {r, ln r,
// threshold(r)}.  A check then costs one multiply-add per (ratio,
// candidate) and no logarithm or interpolation.  The rows are built once by
// the constructor and are immutable afterwards, so a table shared across
// threads (detect/table_cache.hpp) needs no further synchronisation.
#pragma once

#include <cstdint>
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
  ChangePointConfig cfg_;
  std::vector<std::pair<double, double>> entries_;  ///< (ratio, threshold)
  std::vector<double> ratios_;
  std::vector<ScanRow> scan_rows_;  ///< derived from ratios_ and entries_
  double scan_margin_ = 0.0;
};

}  // namespace dvs::detect
