// Process-wide cache of threshold characterizations.
//
// A ThresholdTable is immutable once built, so every consumer with the same
// config can share one instance.  The built-in configs (ChangePointConfig{}
// and its mc_windows = 500 variant, the only ones the scenarios, fleets and
// job documents reach) ship their characterization as recorded data in
// table_cache.cpp: their first use is a data load of 21 numbers, bitwise
// equal to the Monte-Carlo's output.  Any other config is characterized on
// first use, which costs ~30 ms for 3000 windows x 20 ratios (see
// threshold_table.hpp).
//
// Keyed by ChangePointConfig *value*.  Concurrent first use of the same
// config builds exactly once (other threads wait on it); distinct configs
// build in parallel.  Either kind of first use counts as one miss.
// Entries live for the process — tables are a few hundred bytes, and the
// config space touched by one process is tiny.
#pragma once

#include <memory>

#include "common/memo.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {

/// Counters for the cache tests and for sizing intuition; `entries` is the
/// number of distinct configs characterized so far.
using TableCacheStats = MemoStats;

/// The shared table for `cfg`, built on first use: from the recorded data
/// when `cfg` equals a built-in config in every field, by the Monte-Carlo
/// otherwise.  Thread-safe; deterministic (the table depends only on cfg).
std::shared_ptr<const ThresholdTable> shared_threshold_table(
    const ChangePointConfig& cfg = {});

[[nodiscard]] TableCacheStats threshold_table_cache_stats();

/// Drops every cached table (outstanding shared_ptrs stay valid) and
/// zeroes the stats.  For tests that need a cold cache.
void clear_threshold_table_cache();

}  // namespace dvs::detect
