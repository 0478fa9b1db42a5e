// The DPM execution engine.
//
// Bridges a DpmPolicy to the simulated hardware: on idle entry it asks the
// policy for a sleep plan and schedules the commanded transitions; on the
// next request it cancels what has not fired yet, wakes the badge, and
// reports when the device is usable again.  The wakeup latency it reports
// is exactly the performance penalty the TISMDP constraint bounds.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dpm/policy.hpp"
#include "hw/smartbadge.hpp"
#include "obs/probe.hpp"
#include "sim/simulator.hpp"

namespace dvs::dpm {

class PowerManager {
 public:
  /// `probe` (may be null) receives idle entries, sleep commands, wakeups
  /// and the end of every idle period.
  PowerManager(sim::Simulator& sim, hw::SmartBadge& badge, DpmPolicyPtr policy,
               std::uint64_t seed, obs::Probe* probe = nullptr);

  /// The system has drained its queue and gone idle.  `idle_length_hint` is
  /// the true upcoming idle length when the caller knows it (trace-driven
  /// simulation); only the oracle policy consumes it.
  void on_idle_enter(Seconds now, std::optional<Seconds> idle_length_hint);

  /// A request arrived.  Cancels pending sleep steps, wakes the badge if it
  /// was sleeping, and returns the time at which the device can serve.
  Seconds on_request(Seconds now);

  [[nodiscard]] bool asleep() const { return depth_ != hw::PowerState::Idle; }
  [[nodiscard]] hw::PowerState depth() const { return depth_; }

  // ---- statistics -----------------------------------------------------------
  [[nodiscard]] int idle_periods() const { return idle_periods_; }
  [[nodiscard]] int sleeps_commanded() const { return sleeps_; }
  [[nodiscard]] int wakeups() const { return wakeups_; }
  [[nodiscard]] Seconds total_wakeup_delay() const { return total_wakeup_delay_; }

  [[nodiscard]] const DpmPolicy& policy() const { return *policy_; }

  /// Fault-injection hook: called once per wakeup with the current time,
  /// returns extra wakeup latency (a delayed or failed-and-retried standby
  /// exit).  The extra delay counts toward total_wakeup_delay() like any
  /// real wakeup cost.  Null (default) = fault-free hardware.
  using WakeupFaultHook = std::function<Seconds(Seconds)>;
  void set_wakeup_fault_hook(WakeupFaultHook hook) {
    wakeup_fault_hook_ = std::move(hook);
  }

 private:
  void cancel_pending();

  sim::Simulator* sim_;
  hw::SmartBadge* badge_;
  DpmPolicyPtr policy_;
  Rng rng_;
  obs::Probe* probe_;
  WakeupFaultHook wakeup_fault_hook_;
  hw::PowerState depth_ = hw::PowerState::Idle;  ///< deepest commanded state
  std::optional<Seconds> idle_started_at_;       ///< open idle period, if any
  std::vector<sim::EventId> pending_;
  int idle_periods_ = 0;
  int sleeps_ = 0;
  int wakeups_ = 0;
  Seconds total_wakeup_delay_{0.0};
};

}  // namespace dvs::dpm
