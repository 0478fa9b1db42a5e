#include "fault/hw_faults.hpp"

#include "common/check.hpp"

namespace dvs::fault {

HwFaultInjector::HwFaultInjector(const HwFaultPlan& plan, std::uint64_t seed,
                                 obs::Probe* probe)
    : plan_(plan), rng_(seed), probe_(probe) {
  DVS_CHECK_MSG(plan_.wakeup_delay_prob >= 0.0 && plan_.wakeup_delay_prob <= 1.0 &&
                    plan_.wakeup_fail_prob >= 0.0 && plan_.wakeup_fail_prob <= 1.0 &&
                    plan_.freq_fail_prob >= 0.0 && plan_.freq_fail_prob <= 1.0,
                "HwFaultPlan: probabilities out of range");
  DVS_CHECK_MSG(plan_.wakeup_extra_delay.value() >= 0.0 &&
                    plan_.wakeup_retry_delay.value() >= 0.0 &&
                    plan_.rail_stuck_duration.value() >= 0.0,
                "HwFaultPlan: delays must be non-negative");
}

Seconds HwFaultInjector::wakeup_penalty(Seconds now) {
  Seconds penalty{0.0};
  if (plan_.wakeup_fail_prob > 0.0 && rng_.bernoulli(plan_.wakeup_fail_prob)) {
    penalty += plan_.wakeup_retry_delay;
    ++wakeup_faults_;
    if (probe_ != nullptr) {
      probe_->fault(now, "wakeup_fail", plan_.wakeup_retry_delay.value());
    }
  }
  if (plan_.wakeup_delay_prob > 0.0 && rng_.bernoulli(plan_.wakeup_delay_prob)) {
    penalty += plan_.wakeup_extra_delay;
    ++wakeup_faults_;
    if (probe_ != nullptr) {
      probe_->fault(now, "wakeup_delay", plan_.wakeup_extra_delay.value());
    }
  }
  return penalty;
}

std::size_t HwFaultInjector::filter_step(Seconds now, std::size_t current,
                                         std::size_t desired) {
  if (desired == current) return desired;
  if (plan_.rail_stuck_at.value() >= 0.0 && now >= plan_.rail_stuck_at &&
      now < plan_.rail_stuck_at + plan_.rail_stuck_duration) {
    ++rail_faults_;
    if (probe_ != nullptr) {
      probe_->fault(now, "rail_stuck", static_cast<double>(desired));
    }
    return current;
  }
  if (plan_.freq_fail_prob > 0.0 && rng_.bernoulli(plan_.freq_fail_prob)) {
    ++freq_faults_;
    if (probe_ != nullptr) {
      probe_->fault(now, "freq_fail", static_cast<double>(desired));
    }
    return current;
  }
  return desired;
}

}  // namespace dvs::fault
