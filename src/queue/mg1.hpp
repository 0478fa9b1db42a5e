// Analytic M/G/1 queue results (Pollaczek-Khinchine).
//
// The paper flags the limits of its own policy: "when general distributions
// are used, [the] M/M/1 queue model is not applicable, so another method of
// frequency and voltage adjustment is needed."  This module provides that
// method.  Real decode times are far from exponential — MP3 frames are
// nearly deterministic (squared coefficient of variation cv2 ~ 0.0025) and
// MPEG frames are GOP-structured — and the P-K formula prices that
// variability exactly:
//
//   W_q = rho (1 + cv2) / (2 mu (1 - rho)),    delay = 1/mu + W_q.
//
// For cv2 = 1 this reduces to the M/M/1 results of Eq. 5; for deterministic
// service (cv2 = 0) the required rate is noticeably lower, which the
// cv2-aware frequency policy converts into extra energy savings.
//
// The policy calls only the static required_service_rate.  The instance
// API is kept on purpose as the test oracle that
// Mg1.RequiredServiceRateInvertsDelay and Mg1SimProperty check the policy's
// rate and the simulated queue against.
#pragma once

#include "common/units.hpp"

namespace dvs::queue {

class Mg1 {
 public:
  /// service_cv2: squared coefficient of variation of the service time
  /// (Var[S]/E[S]^2); 0 = deterministic, 1 = exponential.
  Mg1(Hertz arrival_rate, Hertz service_rate, double service_cv2);

  [[nodiscard]] Hertz arrival_rate() const { return lambda_; }
  [[nodiscard]] Hertz service_rate() const { return mu_; }
  [[nodiscard]] double service_cv2() const { return cv2_; }

  [[nodiscard]] double utilization() const;
  [[nodiscard]] bool stable() const;

  /// Mean waiting time (excluding service), P-K formula.
  [[nodiscard]] Seconds mean_waiting_time() const;

  /// Mean total delay (waiting + service).
  [[nodiscard]] Seconds mean_total_delay() const;

  /// Mean number in system (Little's law on the total delay).
  [[nodiscard]] double mean_frames_in_system() const;

  /// Inverse of the P-K delay: the service rate mu holding the mean total
  /// delay at `target` given arrival rate lambda and service variability
  /// cv2.  Closed form (positive root of the P-K quadratic); reduces to
  /// Mm1::required_service_rate at cv2 = 1.
  static Hertz required_service_rate(Hertz arrival_rate, Seconds target_delay,
                                     double service_cv2);

 private:
  void require_stable() const;

  Hertz lambda_;
  Hertz mu_;
  double cv2_;
};

}  // namespace dvs::queue
