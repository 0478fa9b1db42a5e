#include "policy/governor_base.hpp"

namespace dvs::policy {

Seconds Governor::apply(Seconds now) {
  std::size_t target = desired_step_;
  if (step_filter_ && target != badge_->cpu_step()) {
    target = step_filter_(now, badge_->cpu_step(), target);
  }
  if (target == badge_->cpu_step()) return Seconds{0.0};
  ++retunes_;
  const Seconds latency = badge_->set_cpu_step(target, now);
  if (probe_ != nullptr) {
    probe_->freq_commit(now, badge_->cpu_step(), badge_->cpu_frequency(),
                        badge_->cpu_voltage(), latency);
  }
  return latency;
}

}  // namespace dvs::policy
