#include "hw/smartbadge.hpp"

#include <gtest/gtest.h>

#include "hw/smartbadge_data.hpp"

namespace dvs::hw {
namespace {

TEST(SmartBadgeData, TableHasSixComponents) {
  const auto specs = smartbadge_component_specs();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "Display");
  EXPECT_EQ(specs[2].name, "SA-1100");
  EXPECT_EQ(smartbadge_spec(BadgeComponentId::Sram).name, "SRAM");
}

TEST(SmartBadgeData, TotalsAreOrderedByDepth) {
  const MilliWatts active = smartbadge_total_power(PowerState::Active);
  const MilliWatts idle = smartbadge_total_power(PowerState::Idle);
  const MilliWatts standby = smartbadge_total_power(PowerState::Standby);
  const MilliWatts off = smartbadge_total_power(PowerState::Off);
  EXPECT_GT(active, idle);
  EXPECT_GT(idle, standby);
  EXPECT_GE(standby, off);
  // ~3.5 W whole-badge active total, as published.
  EXPECT_NEAR(active.value(), 3490.0, 1.0);
}

TEST(SmartBadgeData, EverySleepStateSavesPower) {
  for (const auto& spec : smartbadge_component_specs()) {
    EXPECT_LT(spec.standby_power, spec.idle_power) << spec.name;
    EXPECT_LE(spec.idle_power, spec.active_power) << spec.name;
    EXPECT_LT(spec.wakeup_from_standby, spec.wakeup_from_off) << spec.name;
  }
}

TEST(SmartBadge, StartsAtTopStepAllIdle) {
  SmartBadge badge;
  EXPECT_EQ(badge.cpu_step(), badge.cpu().num_steps() - 1);
  for (std::size_t i = 0; i < badge.num_components(); ++i) {
    EXPECT_EQ(badge.component(static_cast<BadgeComponentId>(i)).state(),
              PowerState::Idle);
  }
  EXPECT_NEAR(badge.total_power().value(),
              smartbadge_total_power(PowerState::Idle).value(), 1e-9);
}

TEST(SmartBadge, CpuStepChangesPowerAndVoltage) {
  SmartBadge badge;
  badge.component(BadgeComponentId::Cpu).set_state(PowerState::Active, seconds(0.0));
  const MilliWatts p_top = badge.component(BadgeComponentId::Cpu).current_power();
  const Seconds lat = badge.set_cpu_step(0, seconds(1.0));
  EXPECT_NEAR(lat.value(), 150e-6, 1e-12);
  EXPECT_EQ(badge.cpu_step(), 0u);
  EXPECT_LT(badge.component(BadgeComponentId::Cpu).current_power(), p_top);
  EXPECT_NEAR(badge.cpu_voltage().value(), 0.86, 0.01);
  EXPECT_EQ(badge.cpu_switch_count(), 1);
  // Same step: no switch, no latency.
  EXPECT_DOUBLE_EQ(badge.set_cpu_step(0, seconds(2.0)).value(), 0.0);
  EXPECT_EQ(badge.cpu_switch_count(), 1);
}

TEST(SmartBadge, CpuStepOutOfRangeThrows) {
  SmartBadge badge;
  EXPECT_THROW((void)(badge.set_cpu_step(12, seconds(0.0))), std::logic_error);
}

TEST(SmartBadge, SetAllReturnsWorstWakeup) {
  SmartBadge badge;
  badge.set_all(PowerState::Off, seconds(0.0));
  for (std::size_t i = 0; i < badge.num_components(); ++i) {
    EXPECT_EQ(badge.component(static_cast<BadgeComponentId>(i)).state(),
              PowerState::Off);
  }
  const Seconds worst = badge.set_all(PowerState::Idle, seconds(10.0));
  // WLAN has the slowest t_off (400 ms).
  EXPECT_NEAR(worst.value(), 0.4, 1e-9);
  EXPECT_NEAR(badge.latest_wakeup_completion(seconds(10.0)).value(), 10.4, 1e-9);
  badge.finish_wakeups(seconds(10.4));
  EXPECT_FALSE(badge.component(BadgeComponentId::WlanRf).transitioning());
}

TEST(SmartBadge, FinishWakeupsOnlyCompletesDueOnes) {
  SmartBadge badge;
  badge.set_all(PowerState::Standby, seconds(0.0));
  badge.set_all(PowerState::Idle, seconds(1.0));
  // Display takes 100 ms; FLASH takes 0.6 ms.
  badge.finish_wakeups(seconds(1.01));
  EXPECT_FALSE(badge.component(BadgeComponentId::Flash).transitioning());
  EXPECT_TRUE(badge.component(BadgeComponentId::Display).transitioning());
  badge.finish_wakeups(seconds(1.2));
  EXPECT_FALSE(badge.component(BadgeComponentId::Display).transitioning());
}

TEST(SmartBadge, TotalEnergySumsComponents) {
  SmartBadge badge;
  badge.component(BadgeComponentId::Cpu).set_state(PowerState::Active, seconds(0.0));
  const Joules total = badge.total_energy(seconds(10.0));
  Joules sum{0.0};
  for (std::size_t i = 0; i < badge.num_components(); ++i) {
    sum += badge.component(static_cast<BadgeComponentId>(i))
               .energy_consumed(seconds(10.0));
  }
  EXPECT_NEAR(total.value(), sum.value(), 1e-9);
  EXPECT_GT(total.value(), 0.0);
}

TEST(SmartBadge, EnergyDropsWithSleep) {
  SmartBadge idle_badge;
  SmartBadge sleeping_badge;
  sleeping_badge.set_all(PowerState::Standby, seconds(0.0));
  EXPECT_LT(sleeping_badge.total_energy(seconds(100.0)).value(),
            idle_badge.total_energy(seconds(100.0)).value() / 5.0);
}

}  // namespace
}  // namespace dvs::hw
