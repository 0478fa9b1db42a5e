// Frequency/voltage setting policy (Section 3.1, Equation 5).
//
// "Policy is implemented using M/M/1 queue results to ensure constant
// average delay experienced by buffered frames ... when either interarrival
// rate or the servicing rate change, the frame delay is evaluated and the
// new frequency and voltage are selected that will keep the frame delay
// constant."
//
// Given the estimated arrival rate lambda_U and the estimated service rate
// at the top frequency step lambda_Dmax, the required service rate is
// lambda_D = lambda_U + 1/d (inverse of Eq. 5); dividing by lambda_Dmax
// gives the required performance ratio, which the application's
// frequency-performance curve (Figures 4/5) maps back to the lowest
// sufficient frequency step.  The voltage follows the V(f) table (Fig. 3)
// automatically — hw::SmartBadge couples them.
//
// The curve and the CPU's step ladder are fixed for the policy's lifetime,
// so the constructor evaluates the curve once per step and every decision
// scans that per-step performance table; the curve is not evaluated after
// construction.
#pragma once

#include <vector>

#include "common/piecewise_linear.hpp"
#include "common/units.hpp"
#include "hw/sa1100.hpp"

namespace dvs::policy {

class FrequencyPolicy {
 public:
  /// performance_curve: (frequency MHz -> performance ratio in (0,1]),
  /// monotone increasing, typically DecoderModel::performance_curve().
  ///
  /// service_cv2 selects the queueing model used to invert the delay
  /// target: 1.0 (default) is the paper's M/M/1 (Eq. 5); other values use
  /// the M/G/1 Pollaczek-Khinchine delay, the "other method of frequency
  /// and voltage adjustment" the paper calls for under general service
  /// distributions.  MP3 decode is nearly deterministic (cv2 ~ 0.003), so
  /// the M/G/1 inversion demands less service margin and saves more energy
  /// at the same measured delay.
  FrequencyPolicy(const hw::Sa1100& cpu, PiecewiseLinear performance_curve,
                  Seconds target_delay, double service_cv2 = 1.0);

  /// Lowest frequency step meeting the delay target for the given rate
  /// estimates.  Saturates at the top step when even maximum performance
  /// cannot meet the target (the paper's video clips hit this at arrival
  /// peaks).  Non-positive service estimates also return the top step (a
  /// safe default before the detectors warm up).
  ///
  /// `buffered_frames` is the current queue length, the third observable
  /// the paper's power manager watches ("the number of jobs in the queue").
  /// Backlog beyond the target's steady-state occupancy (lambda_U * d) adds
  /// drain capacity to the required service rate, so undetected sub-grid
  /// rate drift cannot grow the queue without bound.
  [[nodiscard]] std::size_t select_step(Hertz arrival_rate,
                                        Hertz service_rate_at_max,
                                        double buffered_frames = 0.0) const;

  /// The decode rate achieved at step `s` when the application decodes at
  /// `service_rate_at_max` on the top step (the "CPU rate" curve of
  /// Figure 9).  Throws for a step outside the CPU's table.
  [[nodiscard]] Hertz decode_rate_at(std::size_t step,
                                     Hertz service_rate_at_max) const;

  /// The arrival rate sustainable at step `s` while holding the delay
  /// target (the inverse reading of Figure 9: WLAN rate vs CPU frequency).
  [[nodiscard]] Hertz sustainable_arrival_rate_at(std::size_t step,
                                                  Hertz service_rate_at_max) const;

  [[nodiscard]] Seconds target_delay() const { return target_delay_; }
  [[nodiscard]] double service_cv2() const { return service_cv2_; }
  [[nodiscard]] const hw::Sa1100& cpu() const { return *cpu_; }
  [[nodiscard]] const PiecewiseLinear& performance_curve() const { return curve_; }

 private:
  const hw::Sa1100* cpu_;
  PiecewiseLinear curve_;
  /// curve_(frequency of step s), indexed by step; filled by the constructor.
  std::vector<double> step_perf_;
  Seconds target_delay_;
  double service_cv2_;
};

}  // namespace dvs::policy
