// Analytic M/M/1 queue results (Section 2.3 / Equation 5).
//
// "In the active state, where the exponential distribution is used to
// describe frame arrivals and service times, the behavior of the system can
// be modeled using [an] M/M/1 queue model."  The policy uses the mean
// total-delay formula (the static required_service_rate).  The instance
// API is kept on purpose as the test oracle: the Mm1 tests and
// Mm1SimProperty check the simulator and required_service_rate against it.
#pragma once

#include "common/units.hpp"

namespace dvs::queue {

/// Stationary M/M/1 quantities for arrival rate lambda_u and service rate
/// lambda_d.  All accessors require stability (lambda_u < lambda_d) and
/// throw std::domain_error otherwise.
class Mm1 {
 public:
  Mm1(Hertz arrival_rate, Hertz service_rate);

  [[nodiscard]] Hertz arrival_rate() const { return lambda_u_; }
  [[nodiscard]] Hertz service_rate() const { return lambda_d_; }

  /// Utilization rho = lambda_u / lambda_d (valid for any positive rates).
  [[nodiscard]] double utilization() const;

  [[nodiscard]] bool stable() const;

  /// Equation 5: mean total frame delay (waiting + service)
  ///   d = (1/lambda_d) / (1 - lambda_u/lambda_d) = 1 / (lambda_d - lambda_u).
  [[nodiscard]] Seconds mean_total_delay() const;

  /// Mean waiting time only (excluding service): rho / (lambda_d - lambda_u).
  [[nodiscard]] Seconds mean_waiting_time() const;

  /// Mean number of frames in the system: lambda_u / (lambda_d - lambda_u).
  [[nodiscard]] double mean_frames_in_system() const;

  /// Mean number waiting (excluding the one in service): rho^2 / (1 - rho).
  [[nodiscard]] double mean_frames_waiting() const;

  /// P(n frames in system) = (1 - rho) rho^n.
  [[nodiscard]] double prob_n_in_system(unsigned n) const;

  /// Inverse of Equation 5: the service rate required to hold the mean
  /// total delay at `target` given the arrival rate:
  ///   lambda_d = lambda_u + 1/target.
  static Hertz required_service_rate(Hertz arrival_rate, Seconds target_delay);

  /// Mean extra frames buffered at the target delay (what the paper quotes
  /// as "0.1 s total frame delay corresponding to ~2 extra frames of
  /// video"): lambda_u * target_delay by Little's law.
  static double buffered_frames_at(Hertz arrival_rate, Seconds target_delay);

 private:
  void require_stable() const;

  Hertz lambda_u_;
  Hertz lambda_d_;
};

}  // namespace dvs::queue
