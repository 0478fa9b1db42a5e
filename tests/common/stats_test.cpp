#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dvs {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)(s.mean()), std::logic_error);
  EXPECT_THROW((void)(s.min()), std::logic_error);
  EXPECT_THROW((void)(s.max()), std::logic_error);
  s.add(1.0);
  EXPECT_THROW((void)(s.variance()), std::logic_error);  // needs >= 2
}

TEST(SampleQuantiles, ExactSmallSample) {
  SampleQuantiles q;
  for (double x : {3.0, 1.0, 2.0, 4.0, 5.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.0);
}

TEST(SampleQuantiles, AddAfterQueryResorts) {
  SampleQuantiles q;
  q.add(1.0);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
  q.add(100.0);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
}

TEST(TimeWeightedStats, WeightsByDuration) {
  TimeWeightedStats tw;
  tw.add(1.0, 3.0);
  tw.add(5.0, 1.0);
  EXPECT_DOUBLE_EQ(tw.total_time(), 4.0);
  EXPECT_DOUBLE_EQ(tw.mean(), 2.0);
}

TEST(TimeWeightedStats, ZeroDurationIgnoredNegativeThrows) {
  TimeWeightedStats tw;
  tw.add(99.0, 0.0);
  EXPECT_THROW((void)(tw.mean()), std::logic_error);
  EXPECT_THROW((void)(tw.add(1.0, -1.0)), std::domain_error);
}

}  // namespace
}  // namespace dvs
