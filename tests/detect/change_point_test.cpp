#include "detect/change_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {
namespace {

/// Shares one Monte-Carlo characterization across all tests in this file.
std::shared_ptr<const ThresholdTable> shared_table() {
  static const auto table = std::make_shared<const ThresholdTable>([] {
    ChangePointConfig cfg;
    cfg.mc_windows = 2000;  // faster tests; still a stable 99.5% quantile
    return cfg;
  }());
  return table;
}

TEST(ThresholdTable, ThresholdsAreFiniteAndGrowWithRatio) {
  const auto& entries = shared_table()->entries();
  ASSERT_FALSE(entries.empty());
  for (const auto& [ratio, thr] : entries) {
    EXPECT_GT(ratio, 0.0);
    EXPECT_TRUE(std::isfinite(thr)) << "ratio " << ratio;
  }
  // Interpolation is clamped and finite everywhere.  (Thresholds themselves
  // may be negative: under the null the max statistic is usually strongly
  // negative, so even its 99.5% quantile can sit below zero.)
  for (double r : {0.05, 0.5, 1.3, 2.0, 7.0, 100.0}) {
    EXPECT_TRUE(std::isfinite(shared_table()->threshold_for_ratio(r)));
  }
  // The grid-scan margin is calibrated and non-negative.
  EXPECT_GE(shared_table()->scan_margin(), 0.0);
  EXPECT_TRUE(std::isfinite(shared_table()->scan_margin()));
  EXPECT_EQ(shared_table()->ratios().size(), entries.size());
  EXPECT_THROW((void)(shared_table()->threshold_for_ratio(0.0)), std::logic_error);
}

TEST(ThresholdTable, ScanRowsMatchPerRatioEvaluation) {
  const ThresholdTable& table = *shared_table();
  const auto& rows = table.scan_rows();
  ASSERT_EQ(rows.size(), table.ratios().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double r = table.ratios()[i];
    EXPECT_EQ(rows[i].ratio, r) << "row " << i;
    EXPECT_EQ(rows[i].log_ratio, std::log(r)) << "row " << i;
    EXPECT_EQ(rows[i].threshold, table.threshold_for_ratio(r)) << "row " << i;
  }
}

TEST(ThresholdTable, FalsePositiveRateMatchesConfidence) {
  // Under the null (no change) the statistic exceeds the threshold with
  // probability ~1 - confidence = 0.5%.
  const ChangePointConfig& cfg = shared_table()->config();
  Rng rng{99};
  std::vector<double> window(cfg.window);
  const double ratio = 2.0;
  const double threshold = shared_table()->threshold_for_ratio(ratio);
  int exceed = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    for (auto& x : window) x = rng.exponential(1.0);
    if (max_log_likelihood_ratio(window, ratio, cfg) > threshold) ++exceed;
  }
  const double fp = static_cast<double>(exceed) / trials;
  EXPECT_LT(fp, 0.02);
  EXPECT_GT(fp, 0.0001);
}

TEST(ThresholdTable, ConfigValidation) {
  ChangePointConfig bad;
  bad.window = 4;
  bad.min_tail = 5;
  EXPECT_THROW((void)(ThresholdTable{bad}), std::logic_error);
  bad = ChangePointConfig{};
  bad.confidence = 1.5;
  EXPECT_THROW((void)(ThresholdTable{bad}), std::logic_error);
  bad = ChangePointConfig{};
  bad.grid_step = 0.9;
  EXPECT_THROW((void)(ThresholdTable{bad}), std::logic_error);
  bad = ChangePointConfig{};
  bad.mc_windows = 10;
  EXPECT_THROW((void)(ThresholdTable{bad}), std::logic_error);
}

TEST(ChangePoint, WarmsUpFromSamplesWhenUnseeded) {
  ChangePointDetector d{shared_table()};
  d.reset(hertz(0.0));  // no prior
  Rng rng{7};
  Seconds now{0.0};
  // The bootstrap estimate comes from the first min_tail samples and is
  // noisy; after a window's worth of data the estimate must be solid.
  for (int i = 0; i < 10; ++i) {
    const Seconds gap{rng.exponential(20.0)};
    now += gap;
    d.on_sample(now, gap);
  }
  EXPECT_GT(d.current_rate().value(), 0.0);
  for (int i = 0; i < 190; ++i) {
    const Seconds gap{rng.exponential(20.0)};
    now += gap;
    d.on_sample(now, gap);
  }
  EXPECT_NEAR(d.current_rate().value(), 20.0, 8.0);
}

TEST(ChangePoint, StableUnderConstantRate) {
  ChangePointDetector d{shared_table()};
  d.reset(hertz(30.0));
  Rng rng{8};
  Seconds now{0.0};
  for (int i = 0; i < 2000; ++i) {
    const Seconds gap{rng.exponential(30.0)};
    now += gap;
    d.on_sample(now, gap);
  }
  // A correctly calibrated detector fires only rarely under the null; and
  // when it does, the re-estimated rate stays near the truth.
  EXPECT_LE(d.changes_detected(), 4u);
  EXPECT_NEAR(d.current_rate().value(), 30.0, 6.0);
}

TEST(ChangePoint, DetectsPaperStepQuickly) {
  // Figure 10: 10 -> 60 fr/s; "detects the correct rate within 10 frames of
  // the ideal detection."
  ChangePointDetector d{shared_table()};
  d.reset(hertz(10.0));
  Rng rng{9};
  Seconds now{0.0};
  for (int i = 0; i < 200; ++i) {
    const Seconds gap{rng.exponential(10.0)};
    now += gap;
    d.on_sample(now, gap);
  }
  EXPECT_NEAR(d.current_rate().value(), 10.0, 3.0);
  int frames_to_detect = -1;
  for (int i = 0; i < 300; ++i) {
    const Seconds gap{rng.exponential(60.0)};
    now += gap;
    d.on_sample(now, gap);
    if (frames_to_detect < 0 && std::abs(d.current_rate().value() - 60.0) < 15.0) {
      frames_to_detect = i + 1;
    }
  }
  ASSERT_GE(frames_to_detect, 0) << "never detected the step";
  EXPECT_LE(frames_to_detect, 25);
  // The estimate holds near 60 for the bulk of the post-step run.  (A
  // single by-design 0.5% false alarm may perturb the very last samples,
  // so judge the median of the recent history, not the final value.)
  SampleQuantiles recent;
  for (int i = 0; i < 100; ++i) {
    const Seconds gap{rng.exponential(60.0)};
    now += gap;
    recent.add(d.on_sample(now, gap).value());
  }
  EXPECT_NEAR(recent.median(), 60.0, 10.0);
}

TEST(ChangePoint, TracksDownwardSteps) {
  ChangePointDetector d{shared_table()};
  d.reset(hertz(60.0));
  Rng rng{10};
  Seconds now{0.0};
  // Settle (and freeze) at the true 60 fr/s first.
  for (int i = 0; i < 300; ++i) {
    const Seconds gap{rng.exponential(60.0)};
    now += gap;
    d.on_sample(now, gap);
  }
  ASSERT_NEAR(d.current_rate().value(), 60.0, 8.0);
  // Then drop to 15 fr/s: a change must be declared and tracked.
  for (int i = 0; i < 400; ++i) {
    const Seconds gap{rng.exponential(15.0)};
    now += gap;
    d.on_sample(now, gap);
  }
  EXPECT_NEAR(d.current_rate().value(), 15.0, 4.0);
  EXPECT_GE(d.changes_detected(), 1u);
}

TEST(ChangePoint, RejectsNonPositiveSample) {
  ChangePointDetector d{shared_table()};
  d.reset(hertz(10.0));
  EXPECT_THROW((void)(d.on_sample(seconds(0.0), seconds(0.0))), std::logic_error);
}

TEST(ChangePoint, ResetClearsHistory) {
  ChangePointDetector d{shared_table()};
  d.reset(hertz(10.0));
  Rng rng{11};
  Seconds now{0.0};
  for (int i = 0; i < 500; ++i) {
    const Seconds gap{rng.exponential(50.0)};
    now += gap;
    d.on_sample(now, gap);
  }
  d.reset(hertz(33.0));
  EXPECT_EQ(d.changes_detected(), 0u);
  EXPECT_TRUE(d.change_times().empty());
  EXPECT_NEAR(d.current_rate().value(), 33.0, 1e-12);
}

// ---- property test: every ordered rate pair in the workload range is
// detected reliably and promptly ------------------------------------------------

class ChangePointPairProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ChangePointPairProperty, DetectsPair) {
  const auto [from, to] = GetParam();
  int detected = 0;
  RunningStats latency;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    ChangePointDetector d{shared_table()};
    d.reset(hertz(from));
    Rng rng{static_cast<std::uint64_t>(1000 * from + to) + t};
    Seconds now{0.0};
    for (int i = 0; i < 300; ++i) {  // settle
      const Seconds gap{rng.exponential(from)};
      now += gap;
      d.on_sample(now, gap);
    }
    for (int i = 0; i < 300; ++i) {  // step
      const Seconds gap{rng.exponential(to)};
      now += gap;
      d.on_sample(now, gap);
      const double est = d.current_rate().value();
      if (std::abs(est - to) < 0.25 * to) {
        ++detected;
        latency.add(i + 1);
        break;
      }
    }
  }
  EXPECT_GE(detected, trials - 1) << from << " -> " << to;
  // Larger ratios must be detected within a few tens of samples.
  EXPECT_LE(latency.mean(), 120.0);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadRatePairs, ChangePointPairProperty,
    ::testing::Values(std::make_tuple(10.0, 60.0), std::make_tuple(60.0, 10.0),
                      std::make_tuple(14.0, 38.0), std::make_tuple(38.0, 14.0),
                      std::make_tuple(9.0, 32.0), std::make_tuple(32.0, 9.0),
                      std::make_tuple(72.0, 115.0),
                      std::make_tuple(115.0, 72.0),
                      std::make_tuple(44.0, 86.0)));

}  // namespace
}  // namespace dvs::detect
