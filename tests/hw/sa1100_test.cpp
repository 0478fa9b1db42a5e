#include "hw/sa1100.hpp"

#include <gtest/gtest.h>

namespace dvs::hw {
namespace {

TEST(Sa1100, DefaultTableSpansPaperRange) {
  const Sa1100 cpu;
  EXPECT_EQ(cpu.num_steps(), 12u);
  EXPECT_NEAR(cpu.min_frequency().value(), 59.0, 1e-9);
  EXPECT_NEAR(cpu.max_frequency().value(), 221.25, 1e-9);
  // Steps of 14.75 MHz.
  for (std::size_t i = 1; i < cpu.num_steps(); ++i) {
    EXPECT_NEAR(cpu.frequency_at(i).value() - cpu.frequency_at(i - 1).value(),
                14.75, 1e-9);
  }
}

TEST(Sa1100, VoltageRisesWithFrequency) {
  const Sa1100 cpu;
  EXPECT_NEAR(cpu.voltage_at(0).value(), 0.86, 0.01);
  EXPECT_NEAR(cpu.voltage_at(cpu.num_steps() - 1).value(), 1.65, 0.01);
  for (std::size_t i = 1; i < cpu.num_steps(); ++i) {
    EXPECT_GT(cpu.voltage_at(i), cpu.voltage_at(i - 1));
  }
}

TEST(Sa1100, ActivePowerScalesAsV2F) {
  const Sa1100 cpu;
  const std::size_t top = cpu.num_steps() - 1;
  EXPECT_NEAR(cpu.active_power_at(top).value(), 400.0, 1e-9);
  // Lowest step: large quadratic win.
  const double ratio = cpu.active_power_at(0).value() / cpu.active_power_at(top).value();
  EXPECT_LT(ratio, 0.12);
  EXPECT_GT(ratio, 0.02);
  // Power is strictly increasing in step.
  for (std::size_t i = 1; i < cpu.num_steps(); ++i) {
    EXPECT_GT(cpu.active_power_at(i), cpu.active_power_at(i - 1));
  }
}

TEST(Sa1100, EnergyPerCycleRatioIsVoltageSquared) {
  const Sa1100 cpu;
  const std::size_t top = cpu.num_steps() - 1;
  EXPECT_DOUBLE_EQ(cpu.energy_per_cycle_ratio(top), 1.0);
  const double v0 = cpu.voltage_at(0).value();
  const double vt = cpu.voltage_at(top).value();
  EXPECT_NEAR(cpu.energy_per_cycle_ratio(0), (v0 / vt) * (v0 / vt), 1e-12);
}

TEST(Sa1100, MinVoltageForInterpolatesAndClamps) {
  const Sa1100 cpu;
  EXPECT_NEAR(cpu.min_voltage_for(cpu.frequency_at(3)).value(),
              cpu.voltage_at(3).value(), 1e-9);
  // Between steps: between the two step voltages.
  const Volts v = cpu.min_voltage_for(megahertz(66.0));
  EXPECT_GT(v, cpu.voltage_at(0));
  EXPECT_LT(v, cpu.voltage_at(1));
  // Clamped outside the table.
  EXPECT_DOUBLE_EQ(cpu.min_voltage_for(megahertz(10.0)).value(),
                   cpu.voltage_at(0).value());
  EXPECT_DOUBLE_EQ(cpu.min_voltage_for(megahertz(500.0)).value(),
                   cpu.voltage_at(cpu.num_steps() - 1).value());
}

TEST(Sa1100, StepLookups) {
  const Sa1100 cpu;
  EXPECT_EQ(cpu.step_at_or_above(megahertz(59.0)), 0u);
  EXPECT_EQ(cpu.step_at_or_above(megahertz(60.0)), 1u);
  EXPECT_EQ(cpu.step_at_or_above(megahertz(1000.0)), cpu.num_steps() - 1);
}

TEST(Sa1100, SwitchLatencyIsMicroseconds) {
  const Sa1100 cpu;
  EXPECT_NEAR(cpu.frequency_switch_latency().value(), 150e-6, 1e-12);
}

TEST(Sa1100, CustomTableValidation) {
  std::vector<FrequencyStep> decreasing{{megahertz(100.0), volts(1.0)},
                                        {megahertz(50.0), volts(1.2)}};
  EXPECT_THROW(Sa1100(decreasing, milliwatts(400.0), microseconds(150.0)),
               std::logic_error);
  std::vector<FrequencyStep> voltage_drop{{megahertz(50.0), volts(1.2)},
                                          {megahertz(100.0), volts(1.0)}};
  EXPECT_THROW(Sa1100(voltage_drop, milliwatts(400.0), microseconds(150.0)),
               std::logic_error);
  EXPECT_THROW((void)(Sa1100({}, milliwatts(400.0), microseconds(150.0))), std::logic_error);
}

TEST(Sa1100, OutOfRangeStepThrows) {
  const Sa1100 cpu;
  EXPECT_THROW((void)(cpu.frequency_at(12)), std::logic_error);
  EXPECT_THROW((void)(cpu.voltage_at(99)), std::logic_error);
}

}  // namespace
}  // namespace dvs::hw
