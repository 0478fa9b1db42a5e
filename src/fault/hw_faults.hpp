// Hardware fault injection at the engine / power-manager boundary.
//
// Three fault classes from the SmartBadge's failure modes:
//  * wakeup faults — a standby exit is slower than the Table 1 latency
//    (wakeup_delay) or fails outright and must be retried (wakeup_fail);
//    both surface as extra delay added to the badge's wakeup completion.
//  * frequency-transition failures — a commanded (f, V) step does not take
//    and the CPU stays clamped at the previous step for this boundary.
//  * stuck voltage rail — during a time window no frequency transition is
//    possible at all (the regulator ignores the governor).
//
// The injector is owned by the Engine and consulted through narrow hooks
// (the governor's step filter, the power manager's wakeup hook), so the
// policy/dpm layers stay ignorant of the fault machinery.  All draws come
// from a dedicated substream of the engine seed; a given (plan, seed) pair
// replays the identical fault sequence, which is what keeps fault sweeps
// bit-identical across --jobs.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/probe.hpp"

namespace dvs::fault {

struct HwFaultPlan {
  /// Per-wakeup probability of a slow exit, and the extra latency it costs.
  double wakeup_delay_prob = 0.0;
  Seconds wakeup_extra_delay{0.05};
  /// Per-wakeup probability of a failed exit needing a retry cycle.
  double wakeup_fail_prob = 0.0;
  Seconds wakeup_retry_delay{0.25};
  /// Per-commit probability that a frequency transition does not take.
  double freq_fail_prob = 0.0;
  /// Window during which the voltage rail is stuck (no transitions at
  /// all).  `rail_stuck_at < 0` disables the window.
  Seconds rail_stuck_at{-1.0};
  Seconds rail_stuck_duration{0.0};

  [[nodiscard]] bool any() const {
    return wakeup_delay_prob > 0.0 || wakeup_fail_prob > 0.0 ||
           freq_fail_prob > 0.0 || rail_stuck_at.value() >= 0.0;
  }
};

class HwFaultInjector {
 public:
  /// `probe` (may be null) receives every fault that fires.
  HwFaultInjector(const HwFaultPlan& plan, std::uint64_t seed,
                  obs::Probe* probe = nullptr);

  /// Extra wakeup latency for the standby exit happening at `now`
  /// (zero when no fault fires).  Called once per wakeup.
  Seconds wakeup_penalty(Seconds now);

  /// Step the hardware actually takes when the governor commits
  /// `desired` while at `current` (== `current` when the transition
  /// fails).  Called once per attempted transition.
  std::size_t filter_step(Seconds now, std::size_t current,
                          std::size_t desired);

  [[nodiscard]] std::uint64_t faults_injected() const {
    return wakeup_faults_ + freq_faults_ + rail_faults_;
  }
  [[nodiscard]] std::uint64_t wakeup_faults() const { return wakeup_faults_; }
  [[nodiscard]] std::uint64_t freq_faults() const { return freq_faults_; }
  [[nodiscard]] std::uint64_t rail_faults() const { return rail_faults_; }

 private:
  HwFaultPlan plan_;
  Rng rng_;
  obs::Probe* probe_;
  std::uint64_t wakeup_faults_ = 0;
  std::uint64_t freq_faults_ = 0;
  std::uint64_t rail_faults_ = 0;
};

}  // namespace dvs::fault
