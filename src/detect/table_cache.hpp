// Process-wide cache of Monte-Carlo threshold characterizations.
//
// A ThresholdTable costs ~30 ms to build (3000 windows x ~20 ratios per
// ChangePointConfig, see threshold_table.hpp) and is immutable once built,
// so every consumer with the same config can share one instance.  Before
// this cache, only SweepRunner avoided recharacterizing; tests, examples,
// benches, and single-run CLI invocations each paid the full cost —
// sometimes several times per process.
//
// Keyed by ChangePointConfig *value*.  Concurrent first use of the same
// config characterizes exactly once (other threads wait on it); distinct
// configs characterize in parallel.  Entries live for the process —
// tables are a few hundred bytes, and the config space touched by one
// process is tiny.
#pragma once

#include <memory>

#include "common/memo.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {

/// Counters for the cache tests and for sizing intuition; `entries` is the
/// number of distinct configs characterized so far.
using TableCacheStats = MemoStats;

/// The shared table for `cfg`, characterizing it on first use.
/// Thread-safe; deterministic (characterization depends only on cfg).
std::shared_ptr<const ThresholdTable> shared_threshold_table(
    const ChangePointConfig& cfg = {});

[[nodiscard]] TableCacheStats threshold_table_cache_stats();

/// Drops every cached table (outstanding shared_ptrs stay valid) and
/// zeroes the stats.  For tests that need a cold cache.
void clear_threshold_table_cache();

}  // namespace dvs::detect
