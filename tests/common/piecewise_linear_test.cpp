#include "common/piecewise_linear.hpp"

#include <gtest/gtest.h>

namespace dvs {
namespace {

PiecewiseLinear make_curve() {
  return PiecewiseLinear{{0.0, 0.0}, {1.0, 10.0}, {3.0, 20.0}};
}

TEST(PiecewiseLinear, InterpolatesWithinSegments) {
  const PiecewiseLinear f = make_curve();
  EXPECT_DOUBLE_EQ(f(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.0), 10.0);
  EXPECT_DOUBLE_EQ(f(2.0), 15.0);
  EXPECT_DOUBLE_EQ(f(3.0), 20.0);
}

TEST(PiecewiseLinear, ClampsOutOfRange) {
  const PiecewiseLinear f = make_curve();
  EXPECT_DOUBLE_EQ(f(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(f(99.0), 20.0);
}

TEST(PiecewiseLinear, RejectsBadKnots) {
  EXPECT_THROW((void)(PiecewiseLinear({{0.0, 1.0}})), std::invalid_argument);
  EXPECT_THROW((void)(PiecewiseLinear({{1.0, 0.0}, {1.0, 1.0}})), std::invalid_argument);
  EXPECT_THROW((void)(PiecewiseLinear({{2.0, 0.0}, {1.0, 1.0}})), std::invalid_argument);
}

TEST(PiecewiseLinear, FlatSegmentIsNotStrictlyMonotone) {
  const PiecewiseLinear f{{0.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}};
  EXPECT_FALSE(f.strictly_monotone());
  const PiecewiseLinear up_down{{0.0, 0.0}, {1.0, 5.0}, {2.0, 3.0}};
  EXPECT_FALSE(up_down.strictly_monotone());
}

TEST(PiecewiseLinear, Accessors) {
  const PiecewiseLinear f = make_curve();
  EXPECT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f.x_min(), 0.0);
  EXPECT_DOUBLE_EQ(f.x_max(), 3.0);
  EXPECT_DOUBLE_EQ(f.y_at_x_min(), 0.0);
  EXPECT_DOUBLE_EQ(f.y_at_x_max(), 20.0);
  EXPECT_TRUE(f.increasing());
  const PiecewiseLinear down{{0.0, 10.0}, {1.0, 4.0}, {2.0, 0.0}};
  EXPECT_FALSE(down.increasing());
  EXPECT_TRUE(down.strictly_monotone());
}

}  // namespace
}  // namespace dvs
