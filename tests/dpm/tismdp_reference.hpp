// Reference solver for the TISMDP model: the oracle the production plan
// search (dpm::solve_tismdp_mix, behind TismdpPolicy) is checked against.
//
// The idle period is discretized into bins (Figure 7's time-indexed
// states); in each bin, conditional on the period still running, the power
// manager may keep the current state or deepen it (idle -> standby -> off).
// Backward induction over (bin, power-state) yields the exact optimal
// time-indexed policy for the discretization; a performance constraint
// (expected wakeup delay per idle period) is handled by a Lagrangian sweep
// with bisection, whose optimum randomizes between the two policies
// bracketing the constraint — the same structure the plan search produces,
// so the two independent implementations cross-validate each other (see
// tismdp_solver_test.cpp and dpm_simulation_crosscheck_test.cpp).
#pragma once

#include <vector>

#include "dpm/cost_model.hpp"
#include "dpm/idle_model.hpp"
#include "dpm/policy.hpp"

namespace dvs::dpm {

struct TismdpSolverConfig {
  std::size_t bins = 160;      ///< time bins over (0, horizon], geometric
  Seconds bin_min{0.01};       ///< first bin boundary
  Seconds horizon{0.0};        ///< 0 = auto (10x the idle mean, >= 60 s)
  std::size_t bisect_iters = 40;
};

/// A time-indexed policy: the deepest state commanded at each bin boundary
/// (monotone by construction of the DP's reachable states).
struct TimeIndexedPolicy {
  std::vector<Seconds> boundaries;        ///< bin boundaries, ascending
  std::vector<hw::PowerState> actions;    ///< state held from boundary i on
  double expected_energy = 0.0;           ///< J per idle period
  double expected_delay = 0.0;            ///< s per idle period

  /// Collapses to an executable SleepPlan (first standby bin, first off bin).
  [[nodiscard]] SleepPlan to_plan() const;
};

class TismdpSolver {
 public:
  TismdpSolver(DpmCostModel costs, IdleDistributionPtr idle,
               TismdpSolverConfig cfg = {});

  /// Energy-optimal time-indexed policy, no performance constraint.
  [[nodiscard]] TimeIndexedPolicy solve_unconstrained() const;

  /// Optimal policy for the Lagrangian cost E + lambda * delay.
  [[nodiscard]] TimeIndexedPolicy solve_lagrangian(double lambda) const;

  struct ConstrainedSolution {
    TimeIndexedPolicy meets_bound;   ///< feasible component
    TimeIndexedPolicy cheaper;       ///< infeasible (or equal) component
    double p_meets_bound = 1.0;      ///< mixture probability
    [[nodiscard]] double mixed_energy() const;
    [[nodiscard]] double mixed_delay() const;
  };

  /// Minimizes expected energy subject to E[wakeup delay] <= bound.
  [[nodiscard]] ConstrainedSolution solve(Seconds max_expected_delay) const;

  [[nodiscard]] const std::vector<Seconds>& boundaries() const { return bounds_; }

 private:
  DpmCostModel costs_;
  IdleDistributionPtr idle_;
  TismdpSolverConfig cfg_;
  std::vector<Seconds> bounds_;  ///< 0 = b_0 < b_1 < ... < b_N (horizon)
};

/// DpmPolicy adapter over the reference solver: solves once at construction
/// (uncached) and serves the (possibly randomized) optimal plan at run time,
/// so simulations can check the solver's predictions.
class SolverTismdpPolicy final : public DpmPolicy {
 public:
  SolverTismdpPolicy(DpmCostModel costs, IdleDistributionPtr idle,
                     Seconds max_expected_delay, TismdpSolverConfig cfg = {});

  SleepPlan plan(std::optional<Seconds>, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "tismdp-reference"; }

  [[nodiscard]] const TismdpSolver::ConstrainedSolution& solution() const {
    return solution_;
  }

 private:
  TismdpSolver::ConstrainedSolution solution_;
  SleepPlan plan_meets_;
  SleepPlan plan_cheaper_;
};

}  // namespace dvs::dpm
