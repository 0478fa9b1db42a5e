#include "detect/change_point.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace dvs::detect {

ChangePointDetector::ChangePointDetector(
    std::shared_ptr<const ThresholdTable> thresholds)
    : thresholds_(std::move(thresholds)),
      window_(thresholds_ != nullptr ? thresholds_->config().window : 1) {
  DVS_CHECK_MSG(thresholds_ != nullptr, "ChangePointDetector: null threshold table");
}

ChangePointDetector::ChangePointDetector(const ChangePointConfig& cfg)
    : ChangePointDetector(std::make_shared<const ThresholdTable>(cfg)) {}

void ChangePointDetector::reset(Hertz initial) {
  clear_decision();
  window_.clear();
  samples_since_check_ = 0;
  settling_ = 0;
  settle_sum_ = 0.0;
  rate_ = initial;
  warmed_up_ = initial.value() > 0.0;
  changes_ = 0;
  change_times_.clear();
}

Hertz ChangePointDetector::on_sample(Seconds now, Seconds interval) {
  DVS_CHECK_MSG(interval.value() > 0.0, "ChangePointDetector: non-positive interval");
  const ChangePointConfig& cfg = thresholds_->config();
  clear_decision();

  window_.push(interval.value());
  if (settling_ < cfg.window) {
    // settling_ == window_.size() here (both reset together, and a change
    // sets one to the other), so the push evicted nothing and the running
    // sum stays the front-to-back sum of the whole window.
    ++settling_;
    settle_sum_ += interval.value();
  }

  if (!warmed_up_) {
    // No prior estimate: bootstrap the rate from the first min_tail samples.
    if (window_.size() >= cfg.min_tail) {
      rate_ = Hertz{static_cast<double>(window_.size()) / settle_sum_};
      warmed_up_ = true;
    }
    return rate_;
  }

  // Just after a declared change the rate estimate came from a short tail
  // and is noisy; keep refining it from the accumulating post-change
  // samples until a full window's worth has been seen, then freeze.  The
  // detector's defining property (Fig. 10) is that its output is piecewise
  // constant — settling briefly after each change and never drifting in
  // between (the 3% deadband keeps the settling monotone-ish rather than
  // jittery).
  if (settling_ < cfg.window && settling_ >= cfg.min_tail &&
      settle_sum_ > 0.0) {
    const double refined = static_cast<double>(settling_) / settle_sum_;
    if (std::abs(refined - rate_.value()) > 0.03 * rate_.value()) {
      rate_ = Hertz{refined};
    }
  }

  ++samples_since_check_;
  // The ML-ratio test is calibrated (ThresholdTable) on full windows of m
  // samples; evaluating it on a part-filled window — at stream start or
  // while refilling after a declared change/reset — compares an
  // unlike-sized statistic against that threshold and misfires on short
  // traces.  Hold the decision rule until the window holds m samples.
  if (samples_since_check_ >= cfg.check_interval &&
      window_.size() >= cfg.window) {
    samples_since_check_ = 0;
    detect(now);
  }
  return rate_;
}

bool ChangePointDetector::detect(Seconds now) {
  const ChangePointConfig& cfg = thresholds_->config();
  const double lambda_o = rate_.value();
  DVS_CHECK_MSG(lambda_o > 0.0, "ChangePointDetector: no current rate");

  // One backward pass accumulates the normalized suffix sum (lambda_o * x_j
  // is Exp(1) under the null) and records it at every candidate change
  // position.  Each ratio then needs only the candidates — ~m/check_interval
  // evaluations instead of rescanning all m samples per ratio.  The
  // accumulation multiplies and adds in the same order as the reference
  // max_log_likelihood_ratio, so the statistics are bit-identical to
  // evaluating it on the normalized window.
  const std::size_t m = window_.size();
  const std::size_t step = std::max<std::size_t>(cfg.check_interval, 1);
  const std::size_t min_tail = std::max<std::size_t>(cfg.min_tail, 1);
  cand_sum_.clear();
  cand_len_.clear();
  cand_pos_.clear();
  double tail_sum = 0.0;
  // Count the candidates (multiples of check_interval leaving a tail of at
  // least min_tail) down from the latest; no division per sample.
  std::size_t j = m;
  for (std::size_t k = (m - min_tail) / step * step;; k -= step) {
    while (j > k) tail_sum += window_.at(--j) * lambda_o;
    cand_sum_.push_back(tail_sum);
    cand_len_.push_back(m - k);
    cand_pos_.push_back(k);
    if (k == 0) break;
  }

  // Scan every candidate ratio through the table's precomputed rows (ln r
  // and the interpolated threshold are per-table constants); require the
  // best margin to clear the scan-level calibration (see
  // ThresholdTable::scan_margin).
  double best_margin = -std::numeric_limits<double>::infinity();
  double best_stat = -std::numeric_limits<double>::infinity();
  double best_threshold = 0.0;
  std::size_t best_k = 0;
  for (const ThresholdTable::ScanRow& row : thresholds_->scan_rows()) {
    double stat = -std::numeric_limits<double>::infinity();
    std::size_t k = 0;
    // Candidates are stored in scan (descending-position) order with a
    // strict improvement test, matching the reference scan's tie-break:
    // among equal statistics the latest change position wins.
    for (std::size_t c = 0; c < cand_sum_.size(); ++c) {
      const double lnp = static_cast<double>(cand_len_[c]) * row.log_ratio -
                         (row.ratio - 1.0) * cand_sum_[c];
      if (lnp > stat) {
        stat = lnp;
        k = cand_pos_[c];
      }
    }
    const double margin = stat - row.threshold;
    if (margin > best_margin) {
      best_margin = margin;
      best_stat = stat;
      best_threshold = row.threshold;
      best_k = k;
    }
  }
  const bool found = best_margin > thresholds_->scan_margin();
  if (!found) {
    record_decision(DetectorDecisionInfo{
        best_stat, best_threshold + thresholds_->scan_margin(), false, rate_});
    return false;
  }

  // Change declared: re-estimate the rate from the post-change tail by
  // maximum likelihood and drop the pre-change samples.
  double raw_tail = 0.0;
  std::size_t tail_len = 0;
  for (std::size_t j = best_k; j < m; ++j) {
    raw_tail += window_.at(j);
    ++tail_len;
  }
  DVS_CHECK(tail_len >= cfg.min_tail && raw_tail > 0.0);
  rate_ = Hertz{static_cast<double>(tail_len) / raw_tail};
  window_.drop_front(best_k);
  settling_ = window_.size();
  settle_sum_ = raw_tail;  // the front-to-back sum of the kept tail
  ++changes_;
  change_times_.push_back(now);
  record_decision(DetectorDecisionInfo{
      best_stat, best_threshold + thresholds_->scan_margin(), true, rate_});
  return true;
}

}  // namespace dvs::detect
