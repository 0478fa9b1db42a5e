#include "hw/component.hpp"

#include <utility>

#include "obs/probe.hpp"

namespace dvs::hw {

Component::Component(ComponentSpec spec) : spec_(std::move(spec)) {
  DVS_CHECK_MSG(spec_.active_power.value() >= 0.0, spec_.name + ": negative active power");
  DVS_CHECK_MSG(spec_.idle_power.value() >= 0.0, spec_.name + ": negative idle power");
  DVS_CHECK_MSG(spec_.standby_power.value() >= 0.0, spec_.name + ": negative standby power");
  DVS_CHECK_MSG(spec_.off_power.value() >= 0.0, spec_.name + ": negative off power");
  DVS_CHECK_MSG(spec_.wakeup_from_standby.value() >= 0.0, spec_.name + ": negative t_sby");
  DVS_CHECK_MSG(spec_.wakeup_from_off.value() >= 0.0, spec_.name + ": negative t_off");
}

MilliWatts Component::power_in(PowerState s) const {
  switch (s) {
    case PowerState::Active: return spec_.active_power;
    case PowerState::Idle: return spec_.idle_power;
    case PowerState::Standby: return spec_.standby_power;
    case PowerState::Off: return spec_.off_power;
  }
  return MilliWatts{0.0};
}

Seconds Component::wakeup_latency_from(PowerState s) const {
  switch (s) {
    case PowerState::Standby: return spec_.wakeup_from_standby;
    case PowerState::Off: return spec_.wakeup_from_off;
    default: return Seconds{0.0};
  }
}

MilliWatts Component::current_power() const {
  // A waking component runs its logic at full tilt until usable.
  return transitioning_ ? spec_.active_power : power_in(state_);
}

void Component::accrue(Seconds now) {
  DVS_CHECK_MSG(now >= last_accrual_, spec_.name + ": time moved backwards");
  const Seconds dt = now - last_accrual_;
  // Skipping the empty interval is bit-identical (x + 0.0 == x) and keeps
  // the probe quiet on the frequent same-timestamp accruals.
  if (dt.value() <= 0.0) return;
  const Joules delta = energy(current_power(), dt);
  energy_ += delta;
  last_accrual_ = now;
  // state_/transitioning_ still describe the interval that elapsed: every
  // mutator accrues before changing state.
  if (probe_ != nullptr) {
    probe_->accrual(spec_.name, state_, transitioning_, delta, dt);
  }
}

Seconds Component::set_state(PowerState s, Seconds now) {
  accrue(now);
  DVS_CHECK_MSG(!transitioning_, spec_.name + ": state change during wakeup");
  if (s == state_) return Seconds{0.0};

  const bool waking = is_sleep_state(state_) && !is_sleep_state(s);
  const PowerState from = state_;
  state_ = s;
  if (is_sleep_state(s)) ++sleep_transitions_;
  if (!waking) {
    notify_state_change(from, s, now);
    return Seconds{0.0};
  }

  const Seconds latency = wakeup_latency_from(from);
  if (latency.value() > 0.0) {
    transitioning_ = true;
    wakeup_done_ = now + latency;
    ++wakeups_;
  }
  notify_state_change(from, s, now);
  return latency;
}

void Component::notify_state_change(PowerState from, PowerState to,
                                    Seconds now) {
  if (probe_ != nullptr) {
    probe_->component_state(now, probe_index_, spec_.name, from, to,
                            current_power());
  }
}

void Component::finish_wakeup(Seconds now) {
  if (!transitioning_) return;
  DVS_CHECK_MSG(now >= wakeup_done_, spec_.name + ": wakeup finished early");
  accrue(now);
  transitioning_ = false;
}

void Component::set_active_power(MilliWatts p, Seconds now) {
  DVS_CHECK_MSG(p.value() >= 0.0, spec_.name + ": negative active power");
  accrue(now);
  spec_.active_power = p;
}

void Component::set_idle_power(MilliWatts p, Seconds now) {
  DVS_CHECK_MSG(p.value() >= 0.0, spec_.name + ": negative idle power");
  accrue(now);
  spec_.idle_power = p;
}

Joules Component::energy_consumed(Seconds now) {
  accrue(now);
  return energy_;
}

}  // namespace dvs::hw
