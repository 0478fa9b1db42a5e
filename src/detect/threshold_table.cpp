#include "detect/threshold_table.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace dvs::detect {

double max_log_likelihood_ratio(const std::vector<double>& normalized_window,
                                double ratio, const ChangePointConfig& cfg) {
  DVS_CHECK_MSG(ratio > 0.0, "max_log_likelihood_ratio: ratio must be > 0");
  const std::size_t m = normalized_window.size();
  const std::size_t min_tail = std::max<std::size_t>(cfg.min_tail, 1);
  if (m < min_tail) return -std::numeric_limits<double>::infinity();

  // Suffix sums: tail_sum(k) = sum_{j >= k} x_j.
  // ln P(k) = (m - k) ln r - (r - 1) * tail_sum(k); maximize over candidate k.
  const double log_r = std::log(ratio);
  double best = -std::numeric_limits<double>::infinity();
  double tail_sum = 0.0;
  // Count the candidate k (multiples of check_interval leaving a tail of at
  // least min_tail) down from the latest, accumulating the suffix sum from
  // the window's end.
  const std::size_t step = std::max<std::size_t>(cfg.check_interval, 1);
  std::size_t j = m;
  for (std::size_t k = (m - min_tail) / step * step;; k -= step) {
    while (j > k) tail_sum += normalized_window[--j];
    const double lnp =
        static_cast<double>(m - k) * log_r - (ratio - 1.0) * tail_sum;
    best = std::max(best, lnp);
    if (k == 0) break;
  }
  return best;
}

namespace {

/// The characterized ratios: descending reciprocals then ascending powers
/// of grid_step, kept sorted.
std::vector<double> ratio_grid(const ChangePointConfig& cfg) {
  DVS_CHECK_MSG(cfg.grid_step > 1.0, "ThresholdTable: grid step must be > 1");
  DVS_CHECK_MSG(cfg.grid_points >= 1, "ThresholdTable: need at least one grid point");
  std::vector<double> ratios;
  for (std::size_t j = cfg.grid_points; j >= 1; --j) {
    ratios.push_back(std::pow(cfg.grid_step, -static_cast<double>(j)));
  }
  for (std::size_t j = 1; j <= cfg.grid_points; ++j) {
    ratios.push_back(std::pow(cfg.grid_step, static_cast<double>(j)));
  }
  return ratios;
}

/// ln 2^600: one unit of the suffix product's exponent counter.
constexpr double kLnRescale = 600.0 * std::numbers::ln2;

/// Candidate change positions of a window, latest first: the multiples of
/// check_interval leaving a tail of at least min_tail (the positions
/// max_log_likelihood_ratio visits, in its order).
std::vector<std::size_t> candidate_positions(const ChangePointConfig& cfg) {
  std::vector<std::size_t> cand;
  const std::size_t min_tail = std::max<std::size_t>(cfg.min_tail, 1);
  if (cfg.window < min_tail) return cand;
  const std::size_t step = std::max<std::size_t>(cfg.check_interval, 1);
  for (std::size_t k = (cfg.window - min_tail) / step * step;; k -= step) {
    cand.push_back(k);
    if (k == 0) break;
  }
  return cand;
}

/// The fast pass over one null window.  Draws its samples as y_j = 1 - u_j
/// (the one next_u64 per sample that Rng::exponential(1.0) consumes for
/// x_j = -ln y_j) and returns in `sums[c]` the suffix sum of x_j from
/// candidate cand[c] on, as -ln of the suffix product of y_j.  The product
/// is rescaled by exact powers of two, so it never leaves the normal range.
void approx_suffix_sums(Rng& rng, std::vector<double>& y,
                        const std::vector<std::size_t>& cand,
                        std::vector<double>& sums) {
  for (double& v : y) v = 1.0 - rng.uniform();
  double prod = 1.0;
  double rescales = 0.0;  // the true product is prod * 2^(-600 * rescales)
  std::size_t j = y.size();
  for (std::size_t c = 0; c < cand.size(); ++c) {
    while (j > cand[c]) {
      prod *= y[--j];
      if (prod < 0x1p-600) {
        prod *= 0x1p600;
        rescales += 1.0;
      }
    }
    sums[c] = rescales * kLnRescale - std::log(prod);
  }
}

/// max_log_likelihood_ratio's expression over precomputed suffix sums.
double stat_from_sums(const std::vector<double>& sums,
                      const std::vector<std::size_t>& cand, std::size_t m,
                      double ratio, double log_r) {
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < cand.size(); ++c) {
    best = std::max(best, static_cast<double>(m - cand[c]) * log_r -
                              (ratio - 1.0) * sums[c]);
  }
  return best;
}

/// The `q` quantile SampleQuantiles returns over the exact values, given
/// approximations with |approx[w] - exact(w)| <= bound[w].  quantile(q)
/// reads only the sorted ranks lo = floor(q (n-1)) and lo + 1, which lie in
/// the top n - lo values.  With t the (n - lo)-th largest lower bound, at
/// least n - lo windows are exactly >= t, and a window whose upper bound is
/// below t is below t both exactly and approximately; so recomputing every
/// window whose upper bound reaches t and keeping the approximation for the
/// rest leaves the top n - lo values, and the returned bits, unchanged.
template <typename Exact>
double certified_quantile(const std::vector<double>& approx,
                          const std::vector<double>& bound, double q,
                          Exact exact) {
  const std::size_t n = approx.size();
  const auto lo = static_cast<std::size_t>(q * static_cast<double>(n - 1));
  std::vector<double> lower(n);
  for (std::size_t w = 0; w < n; ++w) lower[w] = approx[w] - bound[w];
  const auto rank = lower.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(lower.begin(), rank, lower.end());
  const double t = lower[lo];
  SampleQuantiles values;
  for (std::size_t w = 0; w < n; ++w) {
    // A non-finite approximation gives a NaN upper bound: recompute it.
    values.add(approx[w] + bound[w] < t ? approx[w] : exact(w));
  }
  return values.quantile(q);
}

}  // namespace

ThresholdTable::ThresholdTable(const ChangePointConfig& cfg,
                               std::span<const double> thresholds,
                               double scan_margin)
    : cfg_(cfg), ratios_(ratio_grid(cfg)), scan_margin_(scan_margin) {
  DVS_CHECK_MSG(thresholds.size() == ratios_.size(),
                "ThresholdTable: need one threshold per grid ratio");
  entries_.reserve(ratios_.size());
  for (std::size_t i = 0; i < ratios_.size(); ++i) {
    entries_.emplace_back(ratios_[i], thresholds[i]);
  }
  build_scan_rows();
}

ThresholdTable::ThresholdTable(const ChangePointConfig& cfg)
    : cfg_(cfg), ratios_(ratio_grid(cfg)) {
  DVS_CHECK_MSG(cfg.window >= 2 * cfg.min_tail, "ThresholdTable: window too small");
  DVS_CHECK_MSG(cfg.confidence > 0.5 && cfg.confidence < 1.0,
                "ThresholdTable: confidence must be in (0.5, 1)");
  DVS_CHECK_MSG(cfg.mc_windows >= 200, "ThresholdTable: too few Monte-Carlo windows");

  std::vector<double> log_ratios;
  for (double r : ratios_) log_ratios.push_back(std::log(r));

  // Every window keeps its generator state, so the few windows near the
  // quantile can be redrawn exactly (see the header).
  const std::size_t m = cfg.window;
  const std::vector<std::size_t> cand = candidate_positions(cfg);
  const double eps = 0x1p-40 * static_cast<double>(m + 1024);
  Rng rng{cfg.mc_seed};
  std::vector<Rng> start(cfg.mc_windows);
  std::vector<double> approx(cfg.mc_windows);
  std::vector<double> bound(cfg.mc_windows);
  std::vector<double> y(m);
  std::vector<double> sums(cand.size());
  std::vector<double> window(m);
  const auto redraw = [&](std::size_t w) -> const std::vector<double>& {
    Rng g = start[w];
    for (auto& x : window) x = g.exponential(1.0);
    return window;
  };
  // Fills `sums` for window w; returns the whole-window sum.
  const auto fast_pass = [&](std::size_t w) {
    start[w] = rng;
    approx_suffix_sums(rng, y, cand, sums);
    return sums.empty() ? 0.0 : sums.back();
  };
  // The header's bound on |fast - exact| for value v: `slope` bounds
  // |r - 1| and `offset` m |ln r| (plus |threshold| for the margin).
  const auto tolerance = [eps](double v, double s_max, double slope,
                               double offset) {
    return eps * (1.0 + std::abs(v) + slope * (1.0 + s_max) + offset);
  };

  // Null hypothesis: all samples at the old rate, normalized to Exp(1).
  entries_.reserve(ratios_.size());
  for (std::size_t i = 0; i < ratios_.size(); ++i) {
    const double r = ratios_[i];
    const double slope = std::abs(r - 1.0);
    const double offset = static_cast<double>(m) * std::abs(log_ratios[i]);
    for (std::size_t w = 0; w < cfg.mc_windows; ++w) {
      const double s_max = fast_pass(w);
      approx[w] = stat_from_sums(sums, cand, m, r, log_ratios[i]);
      bound[w] = tolerance(approx[w], s_max, slope, offset);
    }
    const auto exact = [&](std::size_t w) {
      return max_log_likelihood_ratio(redraw(w), r, cfg_);
    };
    entries_.emplace_back(
        r, certified_quantile(approx, bound, cfg.confidence, exact));
  }

  // Second stage: the on-line detector scans the whole ratio grid at every
  // check, so calibrate the maximum per-ratio margin under the null.
  double slope = 0.0;
  double offset = 0.0;
  for (std::size_t i = 0; i < ratios_.size(); ++i) {
    slope = std::max(slope, std::abs(ratios_[i] - 1.0));
    offset = std::max(offset, std::abs(entries_[i].second) +
                                  static_cast<double>(m) *
                                      std::abs(log_ratios[i]));
  }
  for (std::size_t w = 0; w < cfg.mc_windows; ++w) {
    const double s_max = fast_pass(w);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ratios_.size(); ++i) {
      const double stat =
          stat_from_sums(sums, cand, m, ratios_[i], log_ratios[i]);
      best = std::max(best, stat - entries_[i].second);
    }
    approx[w] = best;
    bound[w] = tolerance(best, s_max, slope, offset);
  }
  const double margin =
      certified_quantile(approx, bound, cfg.confidence, [&](std::size_t w) {
        const std::vector<double>& x = redraw(w);
        double best = -std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < ratios_.size(); ++i) {
          best = std::max(best, max_log_likelihood_ratio(x, ratios_[i], cfg_) -
                                    entries_[i].second);
        }
        return best;
      });
  scan_margin_ = std::max(0.0, margin);
  build_scan_rows();
}

void ThresholdTable::build_scan_rows() {
  scan_rows_.reserve(ratios_.size());
  for (const double r : ratios_) {
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
