// Power-state machine with energy accounting for one hardware component.
//
// Models exactly what the DPM framework observes: per-state power draw, a
// wakeup latency when leaving standby/off, and an energy integral over
// simulated time.  Shutdown (active/idle -> standby/off) is modelled as
// instantaneous — the paper only reports wakeup transition times (t_sby,
// t_off, Table 1) — while wakeups occupy the component at *active* power for
// the whole transition, the standard pessimistic assumption in the authors'
// DPM work (transitions are expensive; that is what makes the policy
// decision non-trivial).
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "common/units.hpp"
#include "hw/power_state.hpp"

namespace dvs::obs {
class Probe;
}  // namespace dvs::obs

namespace dvs::hw {

/// Static description of a component's power behaviour (one row of Table 1).
struct ComponentSpec {
  std::string name;
  MilliWatts active_power;
  MilliWatts idle_power;
  MilliWatts standby_power;
  MilliWatts off_power{0.0};   ///< Usually 0; kept explicit for completeness.
  Seconds wakeup_from_standby; ///< t_sby in Table 1.
  Seconds wakeup_from_off;     ///< t_off in Table 1.
};

/// A component instance with a current state and an energy integral.
///
/// Time never flows backwards: every mutator takes the current simulation
/// time and checks monotonicity.  Energy is integrated lazily — callers need
/// not tick the component; any query or state change first accrues energy up
/// to the given time.
class Component {
 public:
  explicit Component(ComponentSpec spec);

  [[nodiscard]] const ComponentSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }

  /// Power drawn while resident in state `s` (not transitioning).
  [[nodiscard]] MilliWatts power_in(PowerState s) const;

  /// Wakeup latency when leaving `s` for active.  Zero from active/idle.
  [[nodiscard]] Seconds wakeup_latency_from(PowerState s) const;

  [[nodiscard]] PowerState state() const { return state_; }
  [[nodiscard]] bool transitioning() const { return transitioning_; }

  /// Instantaneous power right now (transitioning components draw active
  /// power).
  [[nodiscard]] MilliWatts current_power() const;

  /// Moves to `s` at time `now`.
  ///
  /// Going deeper (toward off) or sideways is instantaneous.  Going from
  /// standby/off to active/idle starts a wakeup: the component draws active
  /// power immediately, and `wakeup_complete_at()` reports when it becomes
  /// usable.  Returns the wakeup latency paid (zero when none).
  Seconds set_state(PowerState s, Seconds now);

  /// Completes a pending wakeup; must be called at or after
  /// wakeup_complete_at().  No-op when not transitioning.
  void finish_wakeup(Seconds now);

  /// Re-points the active-state power draw, accruing energy first.  Used by
  /// the DVS governor: the CPU's active power is a function of the current
  /// frequency/voltage setting.
  void set_active_power(MilliWatts p, Seconds now);

  /// Re-points the idle-state power draw, accruing energy first.  The
  /// SA-1100's idle mode keeps the clock running, so its idle power also
  /// scales with the DVS operating point.
  void set_idle_power(MilliWatts p, Seconds now);

  [[nodiscard]] Seconds wakeup_complete_at() const { return wakeup_done_; }

  /// Integrates energy up to `now` (idempotent; monotone time required).
  void accrue(Seconds now);

  /// Total energy consumed since construction (after accruing to `now`).
  Joules energy_consumed(Seconds now);

  /// Energy total at the last accrual point, without advancing time.
  [[nodiscard]] Joules energy_so_far() const { return energy_; }

  /// Number of commanded sleep transitions (for policy statistics).
  [[nodiscard]] int sleep_transition_count() const { return sleep_transitions_; }
  /// Number of wakeups started.
  [[nodiscard]] int wakeup_count() const { return wakeups_; }

  /// Attaches the run's instrumentation probe: every actual state change
  /// (not same-state commands) and every non-empty energy accrual reports
  /// to it.  `index` is the component's badge slot, which tags its flight
  /// records.  Null (the default) disables; a detached component pays one
  /// pointer test per state change and per accrual.
  void attach_probe(obs::Probe* probe, std::uint16_t index) {
    probe_ = probe;
    probe_index_ = index;
  }

 private:
  void notify_state_change(PowerState from, PowerState to, Seconds now);

  ComponentSpec spec_;
  PowerState state_ = PowerState::Idle;
  bool transitioning_ = false;
  Seconds wakeup_done_{0.0};
  Seconds last_accrual_{0.0};
  Joules energy_{0.0};
  int sleep_transitions_ = 0;
  int wakeups_ = 0;
  obs::Probe* probe_ = nullptr;
  std::uint16_t probe_index_ = 0;
};

}  // namespace dvs::hw
