// The process-wide TISMDP solve cache: one solve per (cost model, idle
// distribution, constraint) value, equal to an uncached solve, with the
// empty-cache-key opt-out always solving fresh.
#include <gtest/gtest.h>

#include <memory>

#include "dpm/cost_model.hpp"
#include "dpm/idle_model.hpp"
#include "dpm/solve_cache.hpp"
#include "hw/smartbadge.hpp"

namespace dvs::dpm {
namespace {

DpmCostModel badge_costs() {
  const hw::SmartBadge badge;
  return smartbadge_cost_model(badge);
}

/// An idle distribution that keeps the default (empty) cache_key and so
/// opts out of caching, while behaving exactly like an ExponentialIdle.
class UncacheableIdle final : public IdleDistribution {
 public:
  explicit UncacheableIdle(Seconds mean) : inner_{mean} {}
  double survival(Seconds t) const override { return inner_.survival(t); }
  Seconds mean() const override { return inner_.mean(); }
  Seconds mean_excess(Seconds t) const override { return inner_.mean_excess(t); }
  Seconds mean_truncated(Seconds t) const override {
    return inner_.mean_truncated(t);
  }
  Seconds sample(Rng& rng) const override { return inner_.sample(rng); }
  std::string name() const override { return "uncacheable"; }

 private:
  ExponentialIdle inner_;
};

void expect_same_plan(const SleepPlan& a, const SleepPlan& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].after.value(), b.steps[i].after.value()) << i;
    EXPECT_EQ(a.steps[i].state, b.steps[i].state) << i;
  }
}

TEST(SolveCache, SameInputsShareOneMixSolve) {
  clear_tismdp_solve_cache();
  const DpmCostModel costs = badge_costs();
  const IdleDistributionPtr idle =
      std::make_shared<ParetoIdle>(2.2, Seconds{0.5});

  const auto a = cached_tismdp_mix(costs, idle, Seconds{0.5});
  const auto b = cached_tismdp_mix(costs, idle, Seconds{0.5});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());

  const SolveCacheStats stats = tismdp_solve_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SolveCache, CachedMixMatchesUncachedSolve) {
  clear_tismdp_solve_cache();
  const DpmCostModel costs = badge_costs();
  const auto idle = std::make_shared<ParetoIdle>(2.2, Seconds{0.5});

  const auto cached = cached_tismdp_mix(costs, idle, Seconds{0.5});
  const TismdpMixSolution fresh = solve_tismdp_mix(costs, *idle, Seconds{0.5});

  expect_same_plan(cached->primary, fresh.primary);
  expect_same_plan(cached->secondary, fresh.secondary);
  EXPECT_EQ(cached->mix_p, fresh.mix_p);
}

TEST(SolveCache, DistinctConstraintsAndModelsDoNotCollide) {
  clear_tismdp_solve_cache();
  const DpmCostModel costs = badge_costs();
  const IdleDistributionPtr pareto =
      std::make_shared<ParetoIdle>(2.2, Seconds{0.5});
  const IdleDistributionPtr expo =
      std::make_shared<ExponentialIdle>(Seconds{2.0});

  const auto a = cached_tismdp_mix(costs, pareto, Seconds{0.5});
  const auto b = cached_tismdp_mix(costs, pareto, Seconds{1.0});
  const auto c = cached_tismdp_mix(costs, expo, Seconds{0.5});
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(b.get(), c.get());
  EXPECT_EQ(tismdp_solve_cache_stats().entries, 3u);
}

TEST(SolveCache, EmptyCacheKeyOptsOutOfCaching) {
  clear_tismdp_solve_cache();
  const DpmCostModel costs = badge_costs();
  const IdleDistributionPtr idle =
      std::make_shared<UncacheableIdle>(Seconds{2.0});
  ASSERT_TRUE(idle->cache_key().empty());

  const auto a = cached_tismdp_mix(costs, idle, Seconds{0.5});
  const auto b = cached_tismdp_mix(costs, idle, Seconds{0.5});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());  // fresh solve each time, never cached

  const SolveCacheStats stats = tismdp_solve_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // The opt-out still computes the right answer.
  const ExponentialIdle reference{Seconds{2.0}};
  const TismdpMixSolution fresh =
      solve_tismdp_mix(costs, reference, Seconds{0.5});
  expect_same_plan(a->primary, fresh.primary);
  EXPECT_EQ(a->mix_p, fresh.mix_p);
}

}  // namespace
}  // namespace dvs::dpm
