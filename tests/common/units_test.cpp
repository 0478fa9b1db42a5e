#include "common/units.hpp"

#include <gtest/gtest.h>

namespace dvs {
namespace {

TEST(Units, ArithmeticStaysInUnit) {
  const Seconds a = seconds(2.0);
  const Seconds b = seconds(0.5);
  EXPECT_DOUBLE_EQ((a + b).value(), 2.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.5);
  EXPECT_DOUBLE_EQ((a * 3.0).value(), 6.0);
  EXPECT_DOUBLE_EQ((3.0 * a).value(), 6.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value(), 0.5);
  EXPECT_DOUBLE_EQ(a / b, 4.0);  // like-unit ratio is dimensionless
  EXPECT_DOUBLE_EQ((-a).value(), -2.0);
}

TEST(Units, CompoundAssignment) {
  Seconds t = seconds(1.0);
  t += seconds(2.0);
  EXPECT_DOUBLE_EQ(t.value(), 3.0);
  t -= seconds(0.5);
  EXPECT_DOUBLE_EQ(t.value(), 2.5);
  t *= 2.0;
  EXPECT_DOUBLE_EQ(t.value(), 5.0);
  t /= 5.0;
  EXPECT_DOUBLE_EQ(t.value(), 1.0);
}

TEST(Units, Comparisons) {
  EXPECT_LT(seconds(1.0), seconds(2.0));
  EXPECT_GE(megahertz(221.2), megahertz(221.2));
  EXPECT_EQ(milliwatts(400.0), milliwatts(400.0));
  EXPECT_NE(volts(1.5), volts(1.65));
}

TEST(Units, FactoryScaling) {
  EXPECT_DOUBLE_EQ(milliseconds(100.0).value(), 0.1);
  EXPECT_DOUBLE_EQ(microseconds(150.0).value(), 150e-6);
  EXPECT_DOUBLE_EQ(watts(3.49).value(), 3490.0);
  EXPECT_DOUBLE_EQ(kilojoules(1.5).value(), 1500.0);
}

TEST(Units, EnergyIsPowerTimesTime) {
  // 400 mW for 10 s = 4 J.
  EXPECT_DOUBLE_EQ(energy(milliwatts(400.0), seconds(10.0)).value(), 4.0);
  // Zero time, zero energy.
  EXPECT_DOUBLE_EQ(energy(watts(3.49), seconds(0.0)).value(), 0.0);
}

TEST(Units, RatePeriodRoundTrip) {
  const Hertz r = hertz(38.3);
  EXPECT_NEAR(rate(period(r)).value(), 38.3, 1e-12);
  EXPECT_THROW((void)(period(hertz(0.0))), std::domain_error);
  EXPECT_THROW((void)(period(hertz(-1.0))), std::domain_error);
  EXPECT_THROW((void)(rate(seconds(0.0))), std::domain_error);
}

TEST(Units, EventsIn) {
  EXPECT_DOUBLE_EQ(events_in(hertz(25.0), seconds(4.0)), 100.0);
}

}  // namespace
}  // namespace dvs
