// StrongARM SA-1100 processor model.
//
// The SA-1100 on the SmartBadge "can be configured at run-time by a simple
// write to a hardware register to execute at one of [several] different
// frequencies" with, for each frequency, a minimum operating voltage
// (Figure 3 of the paper).  The clock generator steps in multiples of
// 14.75 MHz from 59.0 to 221.2 MHz.  Switching between two frequency
// settings takes ~150 us — negligible against frame decode times, which is
// what makes intra-task DVS viable.
//
// Active power scales as P = P_max * (V/V_max)^2 * (f/f_max) (switching
// power, CV^2f); the idle/standby/off powers come from Table 1 and do not
// depend on the frequency setting.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/piecewise_linear.hpp"
#include "common/units.hpp"

namespace dvs::hw {

/// One row of the frequency/voltage table (Figure 3).
struct FrequencyStep {
  MegaHertz frequency;
  Volts min_voltage;
};

/// SA-1100 clock/voltage subsystem: discrete frequency steps, the minimum
/// voltage for each, and the active-power model.
class Sa1100 {
 public:
  /// Builds the default SmartBadge SA-1100: 12 steps of 14.75 MHz from
  /// 59.0 MHz to 221.2 MHz, voltages 0.86 V to 1.65 V (reconstruction of
  /// Figure 3; the printed figure spans ~0.8-1.65 V over that range).
  Sa1100();

  /// Custom table (sorted ascending, at least one step) and max active power.
  Sa1100(std::vector<FrequencyStep> steps, MilliWatts active_power_at_max,
         Seconds frequency_switch_latency);

  [[nodiscard]] std::span<const FrequencyStep> steps() const { return steps_; }
  [[nodiscard]] std::size_t num_steps() const { return steps_.size(); }

  [[nodiscard]] MegaHertz min_frequency() const { return steps_.front().frequency; }
  [[nodiscard]] MegaHertz max_frequency() const { return steps_.back().frequency; }

  /// Minimum voltage required at frequency step i.
  [[nodiscard]] Volts voltage_at(std::size_t step) const;
  [[nodiscard]] MegaHertz frequency_at(std::size_t step) const;

  /// Minimum voltage for an arbitrary frequency (piecewise-linear on the
  /// table, clamped to the table range) — Figure 3 as a curve.
  [[nodiscard]] Volts min_voltage_for(MegaHertz f) const;

  /// Active power at frequency step i running at its minimum voltage.
  [[nodiscard]] MilliWatts active_power_at(std::size_t step) const;

  /// Active power at an arbitrary (frequency, voltage) pair.
  [[nodiscard]] MilliWatts active_power(MegaHertz f, Volts v) const;

  /// Index of the lowest step whose frequency is >= f; clamps to the top
  /// step when f exceeds the table.
  [[nodiscard]] std::size_t step_at_or_above(MegaHertz f) const;

  /// Time to retune the PLL between any two frequency settings.
  [[nodiscard]] Seconds frequency_switch_latency() const { return switch_latency_; }

  /// Energy-per-cycle ratio relative to the top step: (V/Vmax)^2.  The DVS
  /// win in one number: running a fixed cycle count at step i costs this
  /// fraction of the energy of running it at max frequency/voltage.
  [[nodiscard]] double energy_per_cycle_ratio(std::size_t step) const;

 private:
  void validate() const;

  std::vector<FrequencyStep> steps_;
  MilliWatts active_power_at_max_;
  Seconds switch_latency_;
};

}  // namespace dvs::hw
