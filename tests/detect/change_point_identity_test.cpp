// Bit-identity of the on-line change-point detector against a reference
// copy of its original sample path.
//
// ReferenceDetector below keeps the detector's original arithmetic: the
// settling estimate re-sums the post-change window front to back on every
// sample, and the likelihood scan finds candidate change positions with a
// `j % check_interval` test.  ChangePointDetector must produce the same
// rates, decisions and change times, bit for bit, on seeded random streams
// with rate steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detect/change_point.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {
namespace {

class ReferenceDetector {
 public:
  explicit ReferenceDetector(std::shared_ptr<const ThresholdTable> t)
      : thresholds_(std::move(t)) {}

  void reset(double initial) {
    decided_ = false;
    window_.clear();
    samples_since_check_ = 0;
    settling_ = 0;
    rate_ = initial;
    warmed_up_ = initial > 0.0;
    change_times_.clear();
  }

  double on_sample(double now, double interval) {
    const ChangePointConfig& cfg = thresholds_->config();
    decided_ = false;
    window_.push_back(interval);
    if (window_.size() > cfg.window) window_.erase(window_.begin());
    if (settling_ < cfg.window) ++settling_;

    if (!warmed_up_) {
      if (window_.size() >= cfg.min_tail) {
        double sum = 0.0;
        for (std::size_t j = 0; j < window_.size(); ++j) sum += window_[j];
        rate_ = static_cast<double>(window_.size()) / sum;
        warmed_up_ = true;
      }
      return rate_;
    }

    if (settling_ < cfg.window) {
      const std::size_t n = std::min(settling_, window_.size());
      double sum = 0.0;
      for (std::size_t j = window_.size() - n; j < window_.size(); ++j) {
        sum += window_[j];
      }
      if (n >= cfg.min_tail && sum > 0.0) {
        const double refined = static_cast<double>(n) / sum;
        if (std::abs(refined - rate_) > 0.03 * rate_) rate_ = refined;
      }
    }

    ++samples_since_check_;
    if (samples_since_check_ >= cfg.check_interval &&
        window_.size() >= cfg.window) {
      samples_since_check_ = 0;
      detect(now);
    }
    return rate_;
  }

  double rate() const { return rate_; }
  bool decided() const { return decided_; }
  const DetectorDecisionInfo& decision() const { return decision_; }
  const std::vector<double>& change_times() const { return change_times_; }

 private:
  void detect(double now) {
    const ChangePointConfig& cfg = thresholds_->config();
    const double lambda_o = rate_;
    const std::size_t m = window_.size();
    const std::size_t step = std::max<std::size_t>(cfg.check_interval, 1);
    std::vector<double> cand_sum;
    std::vector<std::size_t> cand_len;
    std::vector<std::size_t> cand_pos;
    double tail_sum = 0.0;
    for (std::size_t j = m; j-- > 0;) {
      tail_sum += window_[j] * lambda_o;
      const std::size_t tail_len = m - j;
      if (tail_len < cfg.min_tail) continue;
      if (j % step != 0) continue;
      cand_sum.push_back(tail_sum);
      cand_len.push_back(tail_len);
      cand_pos.push_back(j);
    }

    double best_margin = -std::numeric_limits<double>::infinity();
    double best_stat = -std::numeric_limits<double>::infinity();
    double best_threshold = 0.0;
    std::size_t best_k = 0;
    for (const ThresholdTable::ScanRow& row : thresholds_->scan_rows()) {
      double stat = -std::numeric_limits<double>::infinity();
      std::size_t k = 0;
      for (std::size_t c = 0; c < cand_sum.size(); ++c) {
        const double lnp = static_cast<double>(cand_len[c]) * row.log_ratio -
                           (row.ratio - 1.0) * cand_sum[c];
        if (lnp > stat) {
          stat = lnp;
          k = cand_pos[c];
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
    decided_ = true;
    if (!(best_margin > thresholds_->scan_margin())) {
      decision_ = DetectorDecisionInfo{
          best_stat, best_threshold + thresholds_->scan_margin(), false,
          Hertz{rate_}};
      return;
    }
    double raw_tail = 0.0;
    std::size_t tail_len = 0;
    for (std::size_t j = best_k; j < m; ++j) {
      raw_tail += window_[j];
      ++tail_len;
    }
    rate_ = static_cast<double>(tail_len) / raw_tail;
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(best_k));
    settling_ = window_.size();
    change_times_.push_back(now);
    decision_ = DetectorDecisionInfo{
        best_stat, best_threshold + thresholds_->scan_margin(), true,
        Hertz{rate_}};
  }

  std::shared_ptr<const ThresholdTable> thresholds_;
  std::vector<double> window_;
  std::size_t samples_since_check_ = 0;
  std::size_t settling_ = 0;
  double rate_ = 0.0;
  bool warmed_up_ = false;
  bool decided_ = false;
  DetectorDecisionInfo decision_;
  std::vector<double> change_times_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::shared_ptr<const ThresholdTable> table_for(std::size_t window,
                                                std::size_t check_interval,
                                                std::size_t min_tail) {
  ChangePointConfig cfg;
  cfg.window = window;
  cfg.check_interval = check_interval;
  cfg.min_tail = min_tail;
  cfg.mc_windows = 300;
  return std::make_shared<const ThresholdTable>(cfg);
}

TEST(ChangePointIdentity, MatchesReferenceOnRandomRateSteps) {
  const std::shared_ptr<const ThresholdTable> tables[] = {
      table_for(100, 10, 5), table_for(37, 3, 4), table_for(24, 1, 2),
      table_for(50, 7, 6)};
  Rng rng{0xc0ffee};
  std::size_t decisions = 0;
  std::size_t changes = 0;
  for (int s = 0; s < 64; ++s) {
    const auto& table = tables[s % 4];
    SCOPED_TRACE("stream " + std::to_string(s) + ", window " +
                 std::to_string(table->config().window));
    ChangePointDetector got{table};
    ReferenceDetector want{table};
    // A quarter of the streams start unseeded (warm-up bootstrap path).
    const double initial = s % 4 == 3 ? 0.0 : rng.uniform(5.0, 200.0);
    got.reset(Hertz{initial});
    want.reset(initial);

    double now = 0.0;
    const std::size_t segments = 2 + rng.uniform_index(5);
    for (std::size_t seg = 0; seg < segments; ++seg) {
      const double rate = std::exp(rng.uniform(std::log(2.0), std::log(500.0)));
      const std::size_t len = 20 + rng.uniform_index(400);
      for (std::size_t i = 0; i < len; ++i) {
        const double gap = rng.exponential(rate);
        now += gap;
        const double g = got.on_sample(Seconds{now}, Seconds{gap}).value();
        const double w = want.on_sample(now, gap);
        ASSERT_EQ(bits(g), bits(w)) << "segment " << seg << " sample " << i;
        ASSERT_EQ(got.last_decision() != nullptr, want.decided());
        if (!want.decided()) continue;
        ++decisions;
        const DetectorDecisionInfo& d = *got.last_decision();
        ASSERT_EQ(bits(d.ln_p_max), bits(want.decision().ln_p_max));
        ASSERT_EQ(bits(d.threshold), bits(want.decision().threshold));
        ASSERT_EQ(d.detected, want.decision().detected);
        ASSERT_EQ(bits(d.rate.value()), bits(want.decision().rate.value()));
      }
    }
    ASSERT_EQ(got.change_times().size(), want.change_times().size());
    for (std::size_t i = 0; i < want.change_times().size(); ++i) {
      EXPECT_EQ(bits(got.change_times()[i].value()),
                bits(want.change_times()[i]));
    }
    EXPECT_EQ(got.changes_detected(), want.change_times().size());
    changes += want.change_times().size();
  }
  // The streams must exercise both verdicts, or the comparison is hollow.
  EXPECT_GT(decisions, 1000u);
  EXPECT_GT(changes, 50u);
}

}  // namespace
}  // namespace dvs::detect
