// The SmartBadge device: six components (Table 1) plus the SA-1100
// frequency/voltage subsystem, with whole-device energy accounting.
//
// The badge exposes exactly the control surface the paper's power manager
// has: per-component power-state commands (DPM) and the CPU frequency step
// (DVS).  Changing the frequency step re-points the CPU component's active
// power to the new (f, V) operating point and pays the ~150 us PLL retune
// latency.
#pragma once

#include <array>
#include <cstddef>

#include "hw/component.hpp"
#include "hw/sa1100.hpp"
#include "hw/smartbadge_data.hpp"

namespace dvs::hw {

class SmartBadge {
 public:
  /// Builds the Table 1 badge with the CPU parked at the top frequency step
  /// and all components idle.
  SmartBadge();

  /// Same badge around a custom DVS-capable processor (see
  /// hw/cpu_catalog.hpp); the CPU component's Table 1 active power is
  /// re-pointed to the custom part's top-step power.
  explicit SmartBadge(Sa1100 cpu);

  // ---- components ----------------------------------------------------------

  [[nodiscard]] Component& component(BadgeComponentId id);
  [[nodiscard]] const Component& component(BadgeComponentId id) const;
  [[nodiscard]] std::size_t num_components() const { return components_.size(); }

  /// Commands every component into `s`; returns the worst wakeup latency.
  Seconds set_all(PowerState s, Seconds now);

  /// Completes any pending wakeups whose deadline has passed.
  void finish_wakeups(Seconds now);

  /// Longest pending wakeup completion time (now if none pending).
  [[nodiscard]] Seconds latest_wakeup_completion(Seconds now) const;

  // ---- DVS ------------------------------------------------------------------

  [[nodiscard]] const Sa1100& cpu() const { return cpu_; }
  [[nodiscard]] std::size_t cpu_step() const { return cpu_step_; }
  [[nodiscard]] MegaHertz cpu_frequency() const { return cpu_.frequency_at(cpu_step_); }
  [[nodiscard]] Volts cpu_voltage() const { return cpu_.voltage_at(cpu_step_); }

  /// Selects a frequency/voltage step.  Returns the switch latency paid
  /// (zero when the step is unchanged).  Number of switches is tracked for
  /// overhead accounting.  Both the active and the idle power of the CPU
  /// component follow the step (the SA-1100's idle mode keeps the clock
  /// running, so idle power scales with V^2 f too).
  Seconds set_cpu_step(std::size_t step, Seconds now);

  /// CPU idle-mode power at a given step.
  [[nodiscard]] MilliWatts cpu_idle_power_at(std::size_t step) const;

  [[nodiscard]] int cpu_switch_count() const { return cpu_switches_; }

  // ---- accounting -------------------------------------------------------------

  /// Instantaneous whole-badge power.
  [[nodiscard]] MilliWatts total_power() const;

  /// Whole-badge energy consumed since construction, accrued to `now`.
  Joules total_energy(Seconds now);

 private:
  Sa1100 cpu_;
  std::array<Component, kNumBadgeComponents> components_;
  std::size_t cpu_step_;
  MilliWatts cpu_idle_power_at_max_;
  int cpu_switches_ = 0;
};

}  // namespace dvs::hw
