#include "tismdp_reference.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "dpm/solve_cache.hpp"

namespace dvs::dpm {
namespace {

DpmCostModel badge_costs() {
  const hw::SmartBadge badge;
  return smartbadge_cost_model(badge);
}

TEST(TismdpSolver, UnconstrainedPolicyIsMonotoneDeepening) {
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));
  const TismdpSolver solver{badge_costs(), idle};
  const TimeIndexedPolicy p = solver.solve_unconstrained();
  ASSERT_EQ(p.actions.size(), p.boundaries.size());
  for (std::size_t i = 1; i < p.actions.size(); ++i) {
    EXPECT_FALSE(hw::deeper_than(p.actions[i - 1], p.actions[i]))
        << "policy un-deepened at bin " << i;
  }
  // It does eventually sleep on this heavy-tailed distribution.
  EXPECT_TRUE(hw::is_sleep_state(p.actions.back()));
  EXPECT_GT(p.expected_delay, 0.0);
}

TEST(TismdpSolver, MatchesPlanEvaluationOnItsOwnPlan) {
  // The DP's reported expectations must agree with the independent
  // closed-form evaluator on the collapsed plan.
  const DpmCostModel costs = badge_costs();
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));
  const TismdpSolver solver{costs, idle};
  const TimeIndexedPolicy p = solver.solve_unconstrained();
  const SleepPlan plan = p.to_plan();
  const PlanEvaluation ev = evaluate_plan(plan, costs, *idle);
  EXPECT_NEAR(p.expected_energy, ev.expected_energy.value(),
              0.03 * ev.expected_energy.value());
  EXPECT_NEAR(p.expected_delay, ev.expected_delay.value(),
              0.03 * ev.expected_delay.value() + 1e-4);
}

TEST(TismdpSolver, AgreesWithDirectPlanSearch) {
  // Cross-validation: the DP optimum and the TismdpPolicy plan search
  // (solve_tismdp_mix) optimize the same objective over (essentially) the
  // same policy class, so their unconstrained expected energies must agree
  // to within the discretization error.
  const DpmCostModel costs = badge_costs();
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));

  const TismdpSolver solver{costs, idle};
  const TimeIndexedPolicy dp = solver.solve_unconstrained();

  const TismdpMixSolution search = solve_tismdp_mix(
      costs, *idle, Seconds{std::numeric_limits<double>::infinity()});
  const double search_best =
      evaluate_plan(search.primary, costs, *idle).expected_energy.value();
  EXPECT_NEAR(dp.expected_energy, search_best, 0.05 * search_best);
}

TEST(TismdpSolver, ConstraintIsMetByTheMixture) {
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));
  const TismdpSolver solver{badge_costs(), idle};
  for (double bound : {0.02, 0.05, 0.15}) {
    const auto sol = solver.solve(seconds(bound));
    EXPECT_LE(sol.mixed_delay(), bound + 1e-6) << "bound " << bound;
    EXPECT_LE(sol.meets_bound.expected_delay, bound + 1e-9);
    // The mixture never costs less than the unconstrained optimum.
    EXPECT_GE(sol.mixed_energy(),
              solver.solve_unconstrained().expected_energy - 1e-9);
  }
}

TEST(TismdpSolver, TighterBoundCostsMoreEnergy) {
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));
  const TismdpSolver solver{badge_costs(), idle};
  const double loose = solver.solve(seconds(0.2)).mixed_energy();
  const double tight = solver.solve(seconds(0.02)).mixed_energy();
  EXPECT_GE(tight, loose - 1e-9);
}

TEST(TismdpSolver, LooseConstraintReturnsUnconstrained) {
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));
  const TismdpSolver solver{badge_costs(), idle};
  const auto sol = solver.solve(seconds(10.0));
  EXPECT_DOUBLE_EQ(sol.p_meets_bound, 1.0);
  EXPECT_NEAR(sol.mixed_energy(), solver.solve_unconstrained().expected_energy,
              1e-12);
}

TEST(TismdpSolver, ExponentialIdleSleepsEarlyOrNever) {
  // Memoryless idle: the optimal time-indexed policy degenerates — if
  // sleeping is ever worth it, it is worth it immediately after the
  // break-even evidence, so the first sleep bin is early.
  const DpmCostModel costs = badge_costs();
  const auto idle = std::make_shared<ExponentialIdle>(seconds(30.0));
  const TismdpSolver solver{costs, idle};
  const SleepPlan plan = solver.solve_unconstrained().to_plan();
  ASSERT_FALSE(plan.empty());
  EXPECT_LT(plan.steps.front().after.value(), 1.0);
}

TEST(TismdpSolver, ToPlanOrdersSteps) {
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));
  const TismdpSolver solver{badge_costs(), idle};
  const SleepPlan plan = solver.solve_unconstrained().to_plan();
  EXPECT_NO_THROW(plan.validate());
}

TEST(TismdpSolver, ConfigValidation) {
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));
  TismdpSolverConfig bad;
  bad.bins = 2;
  EXPECT_THROW((void)(TismdpSolver(badge_costs(), idle, bad)), std::logic_error);
  EXPECT_THROW((void)(TismdpSolver(badge_costs(), nullptr)), std::logic_error);
  const TismdpSolver solver{badge_costs(), idle};
  EXPECT_THROW((void)(solver.solve_lagrangian(-1.0)), std::logic_error);
}

}  // namespace
}  // namespace dvs::dpm
