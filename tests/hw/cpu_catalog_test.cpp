#include "hw/cpu_catalog.hpp"

#include <gtest/gtest.h>

#include "hw/smartbadge.hpp"

namespace dvs::hw {
namespace {

TEST(CpuCatalog, StockMatchesDefault) {
  const Sa1100 stock = smartbadge_sa1100();
  const Sa1100 def;
  ASSERT_EQ(stock.num_steps(), def.num_steps());
  for (std::size_t s = 0; s < stock.num_steps(); ++s) {
    EXPECT_DOUBLE_EQ(stock.frequency_at(s).value(), def.frequency_at(s).value());
    EXPECT_DOUBLE_EQ(stock.voltage_at(s).value(), def.voltage_at(s).value());
  }
}

TEST(CpuCatalog, CrusoeLikeSpansItsDatasheetRange) {
  const Sa1100 crusoe = crusoe_like();
  EXPECT_NEAR(crusoe.min_frequency().value(), 300.0, 1e-9);
  EXPECT_NEAR(crusoe.max_frequency().value(), 667.0, 1e-9);
  EXPECT_NEAR(crusoe.voltage_at(0).value(), 1.20, 1e-9);
  EXPECT_NEAR(crusoe.voltage_at(crusoe.num_steps() - 1).value(), 1.60, 1e-9);
  EXPECT_NEAR(crusoe.active_power_at(crusoe.num_steps() - 1).value(), 1500.0,
              1e-9);
  // Narrower voltage ratio than the SA-1100: smaller energy-per-cycle win.
  EXPECT_GT(crusoe.energy_per_cycle_ratio(0),
            smartbadge_sa1100().energy_per_cycle_ratio(0));
}

TEST(CpuCatalog, FrequencyOnlyHasConstantEnergyPerCycle) {
  const Sa1100 fixed = frequency_only_sa1100();
  for (std::size_t s = 0; s < fixed.num_steps(); ++s) {
    EXPECT_DOUBLE_EQ(fixed.energy_per_cycle_ratio(s), 1.0);
  }
  // Power still scales with frequency (linear, no quadratic term).
  EXPECT_NEAR(fixed.active_power_at(0).value(), 400.0 * 59.0 / 221.25, 1e-6);
}

TEST(CpuCatalog, BadgeAcceptsCustomCpu) {
  SmartBadge badge{crusoe_like()};
  EXPECT_NEAR(badge.cpu().max_frequency().value(), 667.0, 1e-9);
  // CPU component active power re-pointed to the custom part.
  badge.component(BadgeComponentId::Cpu).set_state(PowerState::Active, seconds(0.0));
  EXPECT_NEAR(badge.component(BadgeComponentId::Cpu).current_power().value(),
              1500.0, 1e-9);
  // Step changes still work and scale idle power.
  badge.set_cpu_step(0, seconds(1.0));
  EXPECT_LT(badge.cpu_idle_power_at(0).value(), badge.cpu_idle_power_at(11).value());
}

TEST(CpuCatalog, IdlePowerScalesWithOperatingPoint) {
  const SmartBadge badge;
  const std::size_t top = badge.cpu().num_steps() - 1;
  EXPECT_NEAR(badge.cpu_idle_power_at(top).value(), 170.0, 1e-9);
  // At the lowest step: V^2 f scaling of the 170 mW figure.
  const double expected = 170.0 * badge.cpu().energy_per_cycle_ratio(0) *
                          (59.0 / 221.25);
  EXPECT_NEAR(badge.cpu_idle_power_at(0).value(), expected, 1e-9);
  EXPECT_LT(badge.cpu_idle_power_at(0).value(), 20.0);
}

}  // namespace
}  // namespace dvs::hw
