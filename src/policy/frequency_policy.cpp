#include "policy/frequency_policy.hpp"

#include <utility>

#include "common/check.hpp"
#include "queue/mg1.hpp"
#include "queue/mm1.hpp"

namespace dvs::policy {

FrequencyPolicy::FrequencyPolicy(const hw::Sa1100& cpu,
                                 PiecewiseLinear performance_curve,
                                 Seconds target_delay, double service_cv2)
    : cpu_(&cpu),
      curve_(std::move(performance_curve)),
      target_delay_(target_delay),
      service_cv2_(service_cv2) {
  DVS_CHECK_MSG(target_delay_.value() > 0.0, "FrequencyPolicy: target delay must be > 0");
  DVS_CHECK_MSG(service_cv2_ >= 0.0, "FrequencyPolicy: cv2 must be >= 0");
  DVS_CHECK_MSG(curve_.strictly_monotone() && curve_.increasing(),
                "FrequencyPolicy: performance curve must be strictly increasing");
  step_perf_.reserve(cpu_->num_steps());
  for (std::size_t s = 0; s < cpu_->num_steps(); ++s) {
    step_perf_.push_back(curve_(cpu_->frequency_at(s).value()));
  }
}

std::size_t FrequencyPolicy::select_step(Hertz arrival_rate,
                                         Hertz service_rate_at_max,
                                         double buffered_frames) const {
  const std::size_t top = step_perf_.size() - 1;
  if (arrival_rate.value() <= 0.0 || service_rate_at_max.value() <= 0.0) return top;

  Hertz required =
      service_cv2_ == 1.0
          ? queue::Mm1::required_service_rate(arrival_rate, target_delay_)
          : queue::Mg1::required_service_rate(arrival_rate, target_delay_,
                                              service_cv2_);
  // Queue feedback: backlog above the steady-state occupancy must drain
  // within ~10 target-delays, so persistent service-estimate error shows up
  // as a bounded, self-correcting frequency bump instead of unbounded delay.
  const double steady_occupancy =
      arrival_rate.value() * target_delay_.value() + 1.0;
  const double excess = buffered_frames - steady_occupancy;
  if (excess > 0.0) {
    required += Hertz{excess / (10.0 * target_delay_.value())};
  }
  const double required_ratio = required.value() / service_rate_at_max.value();
  if (required_ratio >= 1.0) return top;  // saturated: run flat out

  for (std::size_t s = 0; s <= top; ++s) {
    // Relative epsilon: a step whose performance matches the requirement to
    // within rounding is sufficient.
    if (step_perf_[s] >= required_ratio * (1.0 - 1e-9)) return s;
  }
  return top;
}

Hertz FrequencyPolicy::decode_rate_at(std::size_t step,
                                      Hertz service_rate_at_max) const {
  DVS_CHECK_MSG(service_rate_at_max.value() > 0.0,
                "FrequencyPolicy: non-positive service rate");
  DVS_CHECK_MSG(step < step_perf_.size(), "FrequencyPolicy: step out of range");
  return Hertz{step_perf_[step] * service_rate_at_max.value()};
}

Hertz FrequencyPolicy::sustainable_arrival_rate_at(
    std::size_t step, Hertz service_rate_at_max) const {
  // Invert lambda_D = lambda_U + 1/d at this step's decode rate.
  const Hertz decode = decode_rate_at(step, service_rate_at_max);
  const double lambda_u = decode.value() - 1.0 / target_delay_.value();
  return Hertz{lambda_u > 0.0 ? lambda_u : 0.0};
}

}  // namespace dvs::policy
