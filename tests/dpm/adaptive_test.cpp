#include "dpm/adaptive.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "dpm/power_manager.hpp"
#include "dpm/solve_cache.hpp"

namespace dvs::dpm {
namespace {

DpmCostModel badge_costs() {
  const hw::SmartBadge badge;
  return smartbadge_cost_model(badge);
}

TEST(Adaptive, FallsBackBeforeEnoughObservations) {
  AdaptiveDpmPolicy policy{badge_costs()};
  Rng rng{1};
  EXPECT_FALSE(policy.learned());
  const SleepPlan plan = policy.plan(std::nullopt, rng);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.steps[0].after.value(), 5.0);  // conservative fallback
  EXPECT_DOUBLE_EQ(plan.steps[1].after.value(), 60.0);
}

TEST(Adaptive, LearnsParetoFromParetoIdleness) {
  AdaptiveDpmPolicy policy{badge_costs()};
  const ParetoIdle truth{1.8, seconds(8.0)};
  Rng rng{2};
  for (int i = 0; i < 200; ++i) policy.observe_idle_period(truth.sample(rng));
  ASSERT_TRUE(policy.learned());
  EXPECT_EQ(policy.fitted_distribution()->name(), "pareto");
  // Fitted moments land near the truth.
  EXPECT_NEAR(policy.fitted_distribution()->mean().value(), truth.mean().value(),
              truth.mean().value() * 0.25);
}

TEST(Adaptive, LearnsExponentialFromExponentialIdleness) {
  AdaptiveDpmPolicy policy{badge_costs()};
  const ExponentialIdle truth{seconds(15.0)};
  Rng rng{3};
  for (int i = 0; i < 300; ++i) policy.observe_idle_period(truth.sample(rng));
  ASSERT_TRUE(policy.learned());
  EXPECT_EQ(policy.fitted_distribution()->name(), "exponential");
  EXPECT_NEAR(policy.fitted_distribution()->mean().value(), 15.0, 2.5);
}

TEST(Adaptive, ConvergesToInformedPolicyEnergy) {
  // After learning, the adaptive policy's expected energy (evaluated on the
  // true distribution) approaches that of a policy told the truth upfront.
  const DpmCostModel costs = badge_costs();
  const auto truth = std::make_shared<ParetoIdle>(1.8, seconds(8.0));

  AdaptiveDpmPolicy adaptive{costs};
  Rng rng{4};
  for (int i = 0; i < 400; ++i) adaptive.observe_idle_period(truth->sample(rng));
  ASSERT_TRUE(adaptive.learned());

  const TismdpPolicy informed{costs, truth, seconds(0.5)};
  auto mixture_energy = [&](auto& policy) {
    RunningStats e;
    for (int i = 0; i < 64; ++i) {
      const SleepPlan p = policy.plan(std::nullopt, rng);
      e.add(evaluate_plan(p, costs, *truth).expected_energy.value());
    }
    return e.mean();
  };
  const double adaptive_e = mixture_energy(adaptive);
  TismdpPolicy informed_copy = informed;
  const double informed_e = mixture_energy(informed_copy);
  EXPECT_NEAR(adaptive_e, informed_e, informed_e * 0.15);
  // And both are far below never-sleeping.
  EXPECT_LT(adaptive_e, idle_only_energy(costs, *truth).value() * 0.2);
}

TEST(Adaptive, IgnoresDegenerateDurations) {
  AdaptiveDpmPolicy policy{badge_costs()};
  for (int i = 0; i < 100; ++i) policy.observe_idle_period(seconds(0.0));
  EXPECT_EQ(policy.observations(), 0u);
  EXPECT_FALSE(policy.learned());
}

TEST(Adaptive, HistoryIsBounded) {
  AdaptiveDpmConfig cfg;
  cfg.max_history = 50;
  AdaptiveDpmPolicy policy{badge_costs(), cfg};
  Rng rng{5};
  const ExponentialIdle truth{seconds(10.0)};
  for (int i = 0; i < 500; ++i) policy.observe_idle_period(truth.sample(rng));
  EXPECT_EQ(policy.observations(), 50u);
}

TEST(Adaptive, TracksRegimeChange) {
  // Short idles first (policy stays shallow-ish), then a heavy-tailed
  // regime: the sliding window forgets and the plan deepens/speeds up.
  AdaptiveDpmConfig cfg;
  cfg.max_history = 100;
  cfg.refit_every = 20;
  AdaptiveDpmPolicy policy{badge_costs(), cfg};
  Rng rng{6};
  const ExponentialIdle fast{seconds(1.0)};
  for (int i = 0; i < 150; ++i) policy.observe_idle_period(fast.sample(rng));
  ASSERT_TRUE(policy.learned());
  const double mean_before = policy.fitted_distribution()->mean().value();

  const ParetoIdle slow{1.8, seconds(60.0)};
  for (int i = 0; i < 150; ++i) policy.observe_idle_period(slow.sample(rng));
  const double mean_after = policy.fitted_distribution()->mean().value();
  EXPECT_GT(mean_after, mean_before * 10.0);
}

TEST(Adaptive, PowerManagerFeedsDurationsAutomatically) {
  sim::Simulator sim;
  hw::SmartBadge badge;
  auto policy = std::make_shared<AdaptiveDpmPolicy>(badge_costs());
  PowerManager pm{sim, badge, policy, 77};
  Rng rng{7};
  const ExponentialIdle truth{seconds(8.0)};
  Seconds t{0.0};
  for (int i = 0; i < 60; ++i) {
    pm.on_idle_enter(t, std::nullopt);
    const Seconds T = truth.sample(rng);
    sim.run_until(t + T);
    const Seconds ready = pm.on_request(t + T);
    sim.run_until(ready);
    badge.finish_wakeups(ready);
    t = ready;
  }
  EXPECT_EQ(policy->observations(), 60u);
  EXPECT_TRUE(policy->learned());
}

TEST(Adaptive, ConfigValidation) {
  AdaptiveDpmConfig bad;
  bad.min_observations = 2;
  EXPECT_THROW((void)(AdaptiveDpmPolicy(badge_costs(), bad)), std::logic_error);
  bad = AdaptiveDpmConfig{};
  bad.fallback_off = seconds(1.0);
  EXPECT_THROW((void)(AdaptiveDpmPolicy(badge_costs(), bad)), std::logic_error);
  bad = AdaptiveDpmConfig{};
  bad.max_history = 10;
  bad.min_observations = 20;
  EXPECT_THROW((void)(AdaptiveDpmPolicy(badge_costs(), bad)), std::logic_error);
  bad = AdaptiveDpmConfig{};
  bad.max_expected_delay = seconds(-0.1);
  EXPECT_THROW((void)(AdaptiveDpmPolicy(badge_costs(), bad)), std::logic_error);
}

TEST(Adaptive, RefitsBypassTheSolveCache) {
  // Every refit solves against a freshly fitted distribution whose bits
  // never repeat, so caching those solves would only grow the process-wide
  // cache.  The plans must still be the ones TismdpPolicy serves.
  const DpmCostModel costs = badge_costs();
  AdaptiveDpmPolicy policy{costs};
  const ParetoIdle truth{1.8, seconds(8.0)};
  Rng rng{8};
  const SolveCacheStats before = tismdp_solve_cache_stats();
  for (int i = 0; i < 1000; ++i) policy.observe_idle_period(truth.sample(rng));
  const SolveCacheStats after = tismdp_solve_cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);

  ASSERT_TRUE(policy.learned());
  const IdleDistributionPtr fit{IdleDistributionPtr{},
                                policy.fitted_distribution()};
  const TismdpPolicy informed{costs, fit, AdaptiveDpmConfig{}.max_expected_delay};
  const SleepPlan& got = policy.current_primary_plan();
  const SleepPlan& want = informed.primary_plan();
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].after.value(), want.steps[i].after.value()) << i;
    EXPECT_EQ(got.steps[i].state, want.steps[i].state) << i;
  }
  EXPECT_EQ(policy.mix_probability(), informed.mix_probability());
}

}  // namespace
}  // namespace dvs::dpm
