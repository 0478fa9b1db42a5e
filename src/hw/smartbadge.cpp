#include "hw/smartbadge.hpp"

#include <algorithm>

namespace dvs::hw {
namespace {

std::array<Component, kNumBadgeComponents> build_components() {
  const auto specs = smartbadge_component_specs();
  return {Component{specs[0]}, Component{specs[1]}, Component{specs[2]},
          Component{specs[3]}, Component{specs[4]}, Component{specs[5]}};
}

}  // namespace

SmartBadge::SmartBadge() : SmartBadge(Sa1100{}) {}

SmartBadge::SmartBadge(Sa1100 cpu)
    : cpu_(std::move(cpu)),
      components_(build_components()),
      cpu_step_(cpu_.num_steps() - 1),
      cpu_idle_power_at_max_(smartbadge_spec(BadgeComponentId::Cpu).idle_power) {
  // The CPU component's active power must always reflect the current step;
  // for the stock SA-1100 the Table 1 value already corresponds to the top
  // step, but custom parts (cpu_catalog) need the re-point.
  component(BadgeComponentId::Cpu).set_active_power(cpu_.active_power_at(cpu_step_),
                                                    Seconds{0.0});
}

MilliWatts SmartBadge::cpu_idle_power_at(std::size_t step) const {
  // Idle mode keeps the clock running: power scales as V^2 * f like the
  // active mode, relative to the Table 1 value measured at the top step.
  const double ratio = cpu_.energy_per_cycle_ratio(step) *
                       (cpu_.frequency_at(step) / cpu_.max_frequency());
  return cpu_idle_power_at_max_ * ratio;
}

Component& SmartBadge::component(BadgeComponentId id) {
  return components_[static_cast<std::size_t>(id)];
}

const Component& SmartBadge::component(BadgeComponentId id) const {
  return components_[static_cast<std::size_t>(id)];
}

Seconds SmartBadge::set_all(PowerState s, Seconds now) {
  Seconds worst{0.0};
  for (auto& c : components_) {
    worst = std::max(worst, c.set_state(s, now));
  }
  return worst;
}

void SmartBadge::finish_wakeups(Seconds now) {
  for (auto& c : components_) {
    if (c.transitioning() && c.wakeup_complete_at() <= now) {
      c.finish_wakeup(now);
    }
  }
}

Seconds SmartBadge::latest_wakeup_completion(Seconds now) const {
  Seconds latest = now;
  for (const auto& c : components_) {
    if (c.transitioning()) latest = std::max(latest, c.wakeup_complete_at());
  }
  return latest;
}

Seconds SmartBadge::set_cpu_step(std::size_t step, Seconds now) {
  DVS_CHECK_MSG(step < cpu_.num_steps(), "SmartBadge: cpu step out of range");
  if (step == cpu_step_) return Seconds{0.0};
  cpu_step_ = step;
  component(BadgeComponentId::Cpu).set_active_power(cpu_.active_power_at(step), now);
  component(BadgeComponentId::Cpu).set_idle_power(cpu_idle_power_at(step), now);
  ++cpu_switches_;
  return cpu_.frequency_switch_latency();
}

MilliWatts SmartBadge::total_power() const {
  MilliWatts total{0.0};
  for (const auto& c : components_) total += c.current_power();
  return total;
}

Joules SmartBadge::total_energy(Seconds now) {
  Joules total{0.0};
  for (auto& c : components_) total += c.energy_consumed(now);
  return total;
}

}  // namespace dvs::hw
