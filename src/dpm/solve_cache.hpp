// Process-wide cache of TISMDP plan searches.
//
// TismdpPolicy pays a construction-time optimization: the direct plan
// search (evaluate_plan over every candidate plan).  The solve depends only
// on the cost model, the idle distribution, and the delay constraint, all
// of which repeat across sweep points, replicates, and processes' worth of
// tests — so the result is memoized by value.
//
// The idle distribution is polymorphic, so identity comes from
// IdleDistribution::cache_key(): distributions returning the same
// non-empty key are interchangeable for solving.  An empty key opts out —
// that distribution's solves always run fresh (correct for any downstream
// subclass that doesn't implement the key).
#pragma once

#include <memory>

#include "common/memo.hpp"
#include "common/units.hpp"
#include "dpm/cost_model.hpp"
#include "dpm/idle_model.hpp"
#include "dpm/policy.hpp"

namespace dvs::dpm {

/// Result of the direct TISMDP plan search: the randomized mix of two
/// deepening-timeout plans that TismdpPolicy serves.
struct TismdpMixSolution {
  SleepPlan primary;    ///< meets the delay constraint
  SleepPlan secondary;  ///< cheaper but slower (== primary when feasible)
  double mix_p = 1.0;   ///< probability of serving the primary plan
};

/// The direct plan search itself (uncached).  Throws when no candidate
/// plan meets the constraint.
TismdpMixSolution solve_tismdp_mix(const DpmCostModel& costs,
                                   const IdleDistribution& idle,
                                   Seconds max_expected_delay);

/// Memoized solve_tismdp_mix.  Falls back to a fresh (uncached) solve when
/// `idle->cache_key()` is empty.  Thread-safe; concurrent first use of one
/// key solves exactly once.
std::shared_ptr<const TismdpMixSolution> cached_tismdp_mix(
    const DpmCostModel& costs, const IdleDistributionPtr& idle,
    Seconds max_expected_delay);

/// Solve-cache counters.  `entries` counts distinct keys; uncacheable
/// (empty-key) solves count as misses.
using SolveCacheStats = MemoStats;

[[nodiscard]] SolveCacheStats tismdp_solve_cache_stats();

/// Drops every cached solve (outstanding shared_ptrs stay valid) and
/// zeroes the stats.  No product calls it; it is kept on purpose so tests
/// (SolveCache, the sweep cache-determinism and cache-concurrency tests)
/// start from a cold process-wide cache.
void clear_tismdp_solve_cache();

}  // namespace dvs::dpm
