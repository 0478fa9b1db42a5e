// Cross-checks the analytic plan evaluator against the event-driven
// execution path: running many idle periods through the PowerManager on the
// simulated badge must reproduce the closed-form expected energy and delay.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "dpm/power_manager.hpp"
#include "tismdp_reference.hpp"

namespace dvs::dpm {
namespace {

struct CrossCheck {
  double measured_energy_per_idle = 0.0;
  double measured_delay_per_idle = 0.0;
};

/// Simulates `periods` idle periods of the given distribution under a
/// policy, measuring badge energy and wakeup delay per period.
CrossCheck simulate(const DpmPolicyPtr& policy, const IdleDistribution& idle,
                    int periods, std::uint64_t seed) {
  sim::Simulator sim;
  hw::SmartBadge badge;
  PowerManager pm{sim, badge, policy, seed};
  Rng rng{seed ^ 0xf00dULL};

  double energy_sum = 0.0;
  Seconds t = sim.now();
  for (int i = 0; i < periods; ++i) {
    const Seconds T = idle.sample(rng);
    const double e_before = badge.total_energy(t).value();
    pm.on_idle_enter(t, T);
    sim.run_until(t + T);
    const Seconds ready = pm.on_request(t + T);
    sim.run_until(ready);
    badge.finish_wakeups(ready);
    energy_sum += badge.total_energy(ready).value() - e_before;
    t = ready;
  }
  CrossCheck out;
  out.measured_energy_per_idle = energy_sum / periods;
  out.measured_delay_per_idle = pm.total_wakeup_delay().value() / periods;
  return out;
}

TEST(DpmCrossCheck, TimeoutPolicyMatchesAnalyticEvaluation) {
  hw::SmartBadge badge;
  const DpmCostModel costs = smartbadge_cost_model(badge);
  const ParetoIdle idle{1.8, seconds(8.0)};
  auto policy = std::make_shared<FixedTimeoutPolicy>(seconds(2.0), seconds(20.0));

  Rng plan_rng{1};
  const PlanEvaluation ev =
      evaluate_plan(policy->plan(std::nullopt, plan_rng), costs, idle);
  const CrossCheck sim = simulate(policy, idle, 3000, 99);

  EXPECT_NEAR(sim.measured_energy_per_idle, ev.expected_energy.value(),
              ev.expected_energy.value() * 0.08);
  EXPECT_NEAR(sim.measured_delay_per_idle, ev.expected_delay.value(),
              ev.expected_delay.value() * 0.08);
}

TEST(DpmCrossCheck, SolverPolicyMatchesItsOwnPrediction) {
  hw::SmartBadge badge;
  const DpmCostModel costs = smartbadge_cost_model(badge);
  const auto idle = std::make_shared<ParetoIdle>(1.8, seconds(8.0));
  auto policy =
      std::make_shared<SolverTismdpPolicy>(costs, idle, seconds(0.08));

  const CrossCheck sim = simulate(policy, *idle, 4000, 123);
  EXPECT_NEAR(sim.measured_energy_per_idle, policy->solution().mixed_energy(),
              policy->solution().mixed_energy() * 0.08);
  EXPECT_NEAR(sim.measured_delay_per_idle, policy->solution().mixed_delay(),
              policy->solution().mixed_delay() * 0.12);
  // And the constraint holds in simulation, not just on paper.
  EXPECT_LE(sim.measured_delay_per_idle, 0.08 * 1.1);
}

TEST(DpmCrossCheck, PolicyOrderingSurvivesSimulation) {
  hw::SmartBadge badge;
  const DpmCostModel costs = smartbadge_cost_model(badge);
  const auto idle = std::make_shared<ParetoIdle>(1.6, seconds(1.5));

  auto never = std::make_shared<NeverSleepPolicy>();
  auto bad_timeout =
      std::make_shared<FixedTimeoutPolicy>(seconds(30.0), seconds(300.0));
  auto renewal = std::make_shared<RenewalPolicy>(costs, idle);

  const double e_never = simulate(never, *idle, 2000, 7).measured_energy_per_idle;
  const double e_bad = simulate(bad_timeout, *idle, 2000, 7).measured_energy_per_idle;
  const double e_renewal =
      simulate(renewal, *idle, 2000, 7).measured_energy_per_idle;

  EXPECT_LT(e_bad, e_never);      // even a bad timeout beats never sleeping
  EXPECT_LT(e_renewal, e_bad);    // the optimizer beats the mistuned timeout
  EXPECT_LT(e_renewal, e_never * 0.5);
}

}  // namespace
}  // namespace dvs::dpm
