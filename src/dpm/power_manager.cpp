#include "dpm/power_manager.hpp"

#include <utility>

#include "common/check.hpp"

namespace dvs::dpm {

PowerManager::PowerManager(sim::Simulator& sim, hw::SmartBadge& badge,
                           DpmPolicyPtr policy, std::uint64_t seed,
                           obs::Probe* probe)
    : sim_(&sim),
      badge_(&badge),
      policy_(std::move(policy)),
      rng_(seed),
      probe_(probe) {
  DVS_CHECK_MSG(policy_ != nullptr, "PowerManager: null policy");
}

void PowerManager::cancel_pending() {
  for (sim::EventId id : pending_) sim_->cancel(id);
  pending_.clear();
}

void PowerManager::on_idle_enter(Seconds now,
                                 std::optional<Seconds> idle_length_hint) {
  DVS_CHECK_MSG(!asleep(), "PowerManager: idle entry while asleep");
  ++idle_periods_;
  idle_started_at_ = now;
  if (probe_ != nullptr) probe_->dpm_idle_enter(now, idle_length_hint);
  SleepPlan plan = policy_->plan(idle_length_hint, rng_);
  plan.validate();
  for (const SleepStep& step : plan.steps) {
    const hw::PowerState target = step.state;
    pending_.push_back(sim_->schedule_at(now + step.after, [this, target] {
      // Deepening while idle is instantaneous in the component model.
      // set_all accrues the pre-sleep interval first, so the probe's cause
      // switch afterwards charges only the slept time to the DPM.
      badge_->set_all(target, sim_->now());
      depth_ = target;
      ++sleeps_;
      if (probe_ != nullptr) probe_->dpm_sleep(sim_->now(), target);
    }));
  }
}

Seconds PowerManager::on_request(Seconds now) {
  cancel_pending();
  if (!idle_started_at_.has_value()) {
    // A request during playback ends nothing; only an idle period sleeps.
    DVS_CHECK_MSG(!asleep(), "PowerManager: asleep outside an idle period");
    return now;
  }
  // Feedback for adaptive policies: the idle period just ended.
  const Seconds idle_length = now - *idle_started_at_;
  idle_started_at_.reset();
  policy_->on_idle_period_end(idle_length);

  // Wake every component back to idle; the decode path will activate what
  // it needs.  The badge reports the slowest wakeup.  The set_all accrual
  // closes the slept interval under the DpmSleep cause; the probe then
  // charges the wakeup transition that follows to DpmWakeup.
  const hw::PowerState was = depth_;
  if (asleep()) badge_->set_all(hw::PowerState::Idle, now);
  if (probe_ != nullptr) probe_->idle_period_end(idle_length, was);
  if (!asleep()) return now;
  Seconds ready = badge_->latest_wakeup_completion(now);
  if (wakeup_fault_hook_) ready += wakeup_fault_hook_(now);
  const Seconds delay = ready - now;
  total_wakeup_delay_ += delay;
  ++wakeups_;
  depth_ = hw::PowerState::Idle;
  if (probe_ != nullptr) probe_->dpm_wakeup(now, was, delay, idle_length);
  if (ready > now) {
    sim_->schedule_at(ready, [this] { badge_->finish_wakeups(sim_->now()); });
  } else {
    badge_->finish_wakeups(now);
  }
  return ready;
}

}  // namespace dvs::dpm
