#include "dpm/solve_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace dvs::dpm {

// ---- the direct plan search (moved from TismdpPolicy's constructor) -----------

TismdpMixSolution solve_tismdp_mix(const DpmCostModel& costs,
                                   const IdleDistribution& idle,
                                   Seconds max_expected_delay) {
  const Seconds horizon = std::max(Seconds{60.0}, idle.mean() * 10.0);

  // Optimize expected energy subject to E[delay] <= constraint over the
  // time-indexed plan class.  Track the best feasible plan and the best
  // unconstrained plan; when the unconstrained optimum is infeasible the
  // TISMDP optimum randomizes between the two so the constraint binds with
  // equality (the standard structure of constrained-MDP optima).
  double best_feasible = std::numeric_limits<double>::infinity();
  double best_any = std::numeric_limits<double>::infinity();
  SleepPlan feasible;
  SleepPlan any;
  PlanEvaluation feasible_ev;
  PlanEvaluation any_ev;
  for (const SleepPlan& p : candidate_plans(costs, horizon)) {
    const PlanEvaluation ev = evaluate_plan(p, costs, idle);
    if (ev.expected_energy.value() < best_any) {
      best_any = ev.expected_energy.value();
      any = p;
      any_ev = ev;
    }
    if (ev.expected_delay <= max_expected_delay &&
        ev.expected_energy.value() < best_feasible) {
      best_feasible = ev.expected_energy.value();
      feasible = p;
      feasible_ev = ev;
    }
  }

  TismdpMixSolution out;
  if (any_ev.expected_delay <= max_expected_delay) {
    // Unconstrained optimum already feasible: deterministic policy.
    out.primary = any;
    out.secondary = std::move(any);
    out.mix_p = 1.0;
    return out;
  }
  DVS_CHECK_MSG(std::isfinite(best_feasible),
                "TismdpPolicy: no feasible plan (constraint too tight)");
  out.primary = std::move(feasible);  // meets the constraint
  out.secondary = std::move(any);     // cheaper but too slow
  // Mix p * feasible + (1-p) * any so the expected delay equals the bound.
  const double d_f = feasible_ev.expected_delay.value();
  const double d_a = any_ev.expected_delay.value();
  if (d_a > d_f) {
    out.mix_p = std::clamp(
        (d_a - max_expected_delay.value()) / (d_a - d_f), 0.0, 1.0);
  } else {
    out.mix_p = 1.0;
  }
  return out;
}

// ---- the cache ---------------------------------------------------------------

namespace {

std::string solve_key(const DpmCostModel& costs, const std::string& idle_key,
                      Seconds max_delay) {
  std::string key;
  key.reserve(32 + 4 * 17 * (2 + costs.options.size()) + idle_key.size());
  append_key_double(key, costs.idle_power.value());
  append_key_double(key, costs.active_power.value());
  append_key_u64(key, costs.options.size());
  for (const SleepOption& opt : costs.options) {
    append_key_u64(key, static_cast<std::uint64_t>(opt.state));
    append_key_double(key, opt.power.value());
    append_key_double(key, opt.wakeup_latency.value());
    append_key_double(key, opt.wakeup_energy.value());
  }
  append_key_double(key, max_delay.value());
  key += idle_key;
  return key;
}

Memo<TismdpMixSolution>& cache() {
  static Memo<TismdpMixSolution> c;
  return c;
}

}  // namespace

std::shared_ptr<const TismdpMixSolution> cached_tismdp_mix(
    const DpmCostModel& costs, const IdleDistributionPtr& idle,
    Seconds max_expected_delay) {
  DVS_CHECK_MSG(idle != nullptr, "cached_tismdp_mix: null idle distribution");
  const auto solve = [&] {
    return std::make_shared<const TismdpMixSolution>(
        solve_tismdp_mix(costs, *idle, max_expected_delay));
  };
  const std::string idle_key = idle->cache_key();
  if (idle_key.empty()) {
    cache().count_uncached();
    return solve();
  }
  return cache().get(solve_key(costs, idle_key, max_expected_delay), solve);
}

SolveCacheStats tismdp_solve_cache_stats() { return cache().stats(); }

void clear_tismdp_solve_cache() { cache().clear(); }

}  // namespace dvs::dpm
