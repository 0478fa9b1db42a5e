#include <gtest/gtest.h>

#include "hw/battery.hpp"
#include "hw/dcdc.hpp"

namespace dvs::hw {
namespace {

TEST(DcDc, EfficiencyImprovesWithLoad) {
  const DcDcConverter conv;
  EXPECT_LT(conv.efficiency_at(milliwatts(10.0)), conv.efficiency_at(milliwatts(500.0)));
  EXPECT_NEAR(conv.efficiency_at(milliwatts(3000.0)), 0.90, 1e-9);
}

TEST(DcDc, InputExceedsOutputByLoss) {
  const DcDcConverter conv;
  const MilliWatts load = milliwatts(1000.0);
  const MilliWatts in = conv.input_power(load);
  EXPECT_GT(in, load);
}

TEST(DcDc, ZeroLoadZeroInput) {
  const DcDcConverter conv;
  EXPECT_DOUBLE_EQ(conv.input_power(milliwatts(0.0)).value(), 0.0);
  EXPECT_THROW((void)(conv.efficiency_at(milliwatts(-1.0))), std::logic_error);
}

TEST(DcDc, CustomCurveValidated) {
  EXPECT_THROW(DcDcConverter(PiecewiseLinear{{0.0, 0.0}, {100.0, 0.9}}),
               std::logic_error);  // zero efficiency knot
  EXPECT_THROW(DcDcConverter(PiecewiseLinear{{0.0, 0.5}, {100.0, 1.2}}),
               std::logic_error);  // > 1
}

TEST(Battery, LifetimeInverseInDraw) {
  const Battery b{kilojoules(20.0), milliwatts(2000.0)};
  const Seconds at_1w = b.lifetime(milliwatts(1000.0));
  const Seconds at_2w = b.lifetime(milliwatts(2000.0));
  EXPECT_NEAR(at_1w.value(), 20000.0, 1e-6);
  EXPECT_NEAR(at_2w.value(), 10000.0, 1e-6);
}

TEST(Battery, PeukertDeratesAboveRatedPower) {
  const Battery b{kilojoules(20.0), milliwatts(2000.0), 1.2};
  // At rated power or below: full capacity.
  EXPECT_DOUBLE_EQ(b.effective_capacity(milliwatts(1500.0)).value(), 20000.0);
  // Above rated power: reduced capacity.
  EXPECT_LT(b.effective_capacity(milliwatts(4000.0)).value(), 20000.0);
  // Lifetime is still monotone decreasing in draw.
  EXPECT_GT(b.lifetime(milliwatts(3000.0)), b.lifetime(milliwatts(4000.0)));
}

TEST(Battery, InvalidArgsThrow) {
  EXPECT_THROW((void)(Battery(joules(0.0), milliwatts(1.0))), std::logic_error);
  EXPECT_THROW((void)(Battery(joules(1.0), milliwatts(0.0))), std::logic_error);
  EXPECT_THROW((void)(Battery(joules(1.0), milliwatts(1.0), 0.5)), std::logic_error);
  const Battery b{kilojoules(1.0), milliwatts(100.0)};
  EXPECT_THROW((void)(b.lifetime(milliwatts(0.0))), std::logic_error);
}

}  // namespace
}  // namespace dvs::hw
