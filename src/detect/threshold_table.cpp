#include "detect/threshold_table.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace dvs::detect {

double max_log_likelihood_ratio(const std::vector<double>& normalized_window,
                                double ratio, const ChangePointConfig& cfg) {
  DVS_CHECK_MSG(ratio > 0.0, "max_log_likelihood_ratio: ratio must be > 0");
  const std::size_t m = normalized_window.size();
  if (m < cfg.min_tail) return -std::numeric_limits<double>::infinity();

  // Suffix sums: tail_sum(k) = sum_{j >= k} x_j.
  // ln P(k) = (m - k) ln r - (r - 1) * tail_sum(k); maximize over candidate k.
  const double log_r = std::log(ratio);
  double best = -std::numeric_limits<double>::infinity();
  double tail_sum = 0.0;
  // Walk k from m-1 down to 0, accumulating the suffix sum; evaluate at
  // candidate positions (multiples of check_interval, tail >= min_tail).
  for (std::size_t j = m; j-- > 0;) {
    tail_sum += normalized_window[j];
    const std::size_t k = j;           // change after sample k (0-based)
    const std::size_t tail_len = m - k;
    if (tail_len < cfg.min_tail) continue;
    if (k % std::max<std::size_t>(cfg.check_interval, 1) != 0) continue;
    const double lnp = static_cast<double>(tail_len) * log_r - (ratio - 1.0) * tail_sum;
    best = std::max(best, lnp);
  }
  return best;
}

ThresholdTable::ThresholdTable(const ChangePointConfig& cfg) : cfg_(cfg) {
  DVS_CHECK_MSG(cfg.window >= 2 * cfg.min_tail, "ThresholdTable: window too small");
  DVS_CHECK_MSG(cfg.confidence > 0.5 && cfg.confidence < 1.0,
                "ThresholdTable: confidence must be in (0.5, 1)");
  DVS_CHECK_MSG(cfg.grid_step > 1.0, "ThresholdTable: grid step must be > 1");
  DVS_CHECK_MSG(cfg.grid_points >= 1, "ThresholdTable: need at least one grid point");
  DVS_CHECK_MSG(cfg.mc_windows >= 200, "ThresholdTable: too few Monte-Carlo windows");

  // Ratios: descending reciprocals then ascending powers, kept sorted.
  std::vector<double> ratios;
  for (std::size_t j = cfg.grid_points; j >= 1; --j) {
    ratios.push_back(std::pow(cfg.grid_step, -static_cast<double>(j)));
  }
  for (std::size_t j = 1; j <= cfg.grid_points; ++j) {
    ratios.push_back(std::pow(cfg.grid_step, static_cast<double>(j)));
  }

  ratios_ = ratios;

  Rng rng{cfg.mc_seed};
  std::vector<double> window(cfg.window);
  entries_.reserve(ratios.size());
  for (double r : ratios) {
    // Null hypothesis: all samples at the old rate, normalized to Exp(1).
    SampleQuantiles stat;
    for (std::size_t w = 0; w < cfg.mc_windows; ++w) {
      for (auto& x : window) x = rng.exponential(1.0);
      stat.add(max_log_likelihood_ratio(window, r, cfg_));
    }
    entries_.emplace_back(r, stat.quantile(cfg.confidence));
  }

  // Second stage: the on-line detector scans the whole ratio grid at every
  // check, so calibrate the maximum per-ratio margin under the null.
  SampleQuantiles margins;
  for (std::size_t w = 0; w < cfg.mc_windows; ++w) {
    for (auto& x : window) x = rng.exponential(1.0);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ratios_.size(); ++i) {
      best = std::max(best, max_log_likelihood_ratio(window, ratios_[i], cfg_) -
                                entries_[i].second);
    }
    margins.add(best);
  }
  scan_margin_ = std::max(0.0, margins.quantile(cfg.confidence));

  scan_rows_.reserve(ratios_.size());
  for (double r : ratios_) {
    scan_rows_.push_back(ScanRow{r, std::log(r), threshold_for_ratio(r)});
  }
}

double ThresholdTable::threshold_for_ratio(double r) const {
  DVS_CHECK_MSG(r > 0.0, "ThresholdTable: ratio must be > 0");
  const double lr = std::log(r);
  // entries_ are sorted by ratio; interpolate thresholds in log-ratio space.
  if (lr <= std::log(entries_.front().first)) return entries_.front().second;
  if (lr >= std::log(entries_.back().first)) return entries_.back().second;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const double lo = std::log(entries_[i - 1].first);
    const double hi = std::log(entries_[i].first);
    if (lr <= hi) {
      const double frac = (lr - lo) / (hi - lo);
      return entries_[i - 1].second +
             frac * (entries_[i].second - entries_[i - 1].second);
    }
  }
  return entries_.back().second;
}

}  // namespace dvs::detect
