// The process-wide ThresholdTable cache: one table per config value,
// bit-identical to a fresh Monte-Carlo characterization whether it was
// served from the built-in data or characterized, no cross-config
// collisions.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/detectors.hpp"
#include "detect/table_cache.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {
namespace {

ChangePointConfig small_config() {
  ChangePointConfig cfg;
  cfg.mc_windows = 400;  // fast characterization for tests
  return cfg;
}

/// The mc_windows = 500 config of the `quick` and `fleet_smoke` scenarios,
/// one of the two whose tables ship as data.
ChangePointConfig quick_config() {
  ChangePointConfig cfg;
  cfg.mc_windows = 500;
  return cfg;
}

/// Every number a table holds, as bit patterns: entries, ratios, scan rows
/// and the scan margin.
std::vector<std::uint64_t> table_bits(const ThresholdTable& t) {
  std::vector<std::uint64_t> out;
  const auto put = [&](double x) { out.push_back(std::bit_cast<std::uint64_t>(x)); };
  for (const auto& [ratio, threshold] : t.entries()) {
    put(ratio);
    put(threshold);
  }
  for (const double r : t.ratios()) put(r);
  for (const ThresholdTable::ScanRow& row : t.scan_rows()) {
    put(row.ratio);
    put(row.log_ratio);
    put(row.threshold);
  }
  put(t.scan_margin());
  return out;
}

TEST(TableCache, SameConfigSharesOneInstance) {
  clear_threshold_table_cache();
  const ChangePointConfig cfg = small_config();
  const auto a = shared_threshold_table(cfg);
  const auto b = shared_threshold_table(cfg);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());

  const TableCacheStats stats = threshold_table_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

// The two built-in configs are served from shipped data, the 400-window one
// is characterized; each must equal a fresh Monte-Carlo bit for bit.
TEST(TableCache, CachedTableIsBitwiseEqualToFreshCharacterization) {
  for (const ChangePointConfig& cfg :
       {ChangePointConfig{}, quick_config(), small_config()}) {
    SCOPED_TRACE("mc_windows " + std::to_string(cfg.mc_windows));
    clear_threshold_table_cache();
    const auto cached = shared_threshold_table(cfg);
    const ThresholdTable fresh{cfg};
    EXPECT_EQ(table_bits(*cached), table_bits(fresh));
    EXPECT_EQ(cached->config(), cfg);
  }
}

// A config that differs from a built-in one in any single field must be
// characterized, not served the built-in data.
TEST(TableCache, NearMissConfigIsCharacterized) {
  clear_threshold_table_cache();
  const auto builtin = table_bits(*shared_threshold_table(quick_config()));
  const std::vector<std::pair<std::string, std::function<void(ChangePointConfig&)>>>
      tweaks = {
          {"window", [](ChangePointConfig& c) { c.window = 101; }},
          {"check_interval", [](ChangePointConfig& c) { c.check_interval = 9; }},
          // min_tail acts only through the candidate set: 5 to 10 all
          // give k <= 90, 11 drops k = 90.
          {"min_tail", [](ChangePointConfig& c) { c.min_tail = 11; }},
          {"confidence", [](ChangePointConfig& c) { c.confidence = 0.99; }},
          {"grid_step", [](ChangePointConfig& c) { c.grid_step = 1.3; }},
          {"grid_points", [](ChangePointConfig& c) { c.grid_points = 9; }},
          {"mc_windows", [](ChangePointConfig& c) { c.mc_windows = 501; }},
          {"mc_seed", [](ChangePointConfig& c) { c.mc_seed += 1; }},
      };
  for (const auto& [field, tweak] : tweaks) {
    SCOPED_TRACE(field);
    ChangePointConfig cfg = quick_config();
    tweak(cfg);
    const auto served = table_bits(*shared_threshold_table(cfg));
    EXPECT_EQ(served, table_bits(ThresholdTable{cfg}));
    EXPECT_NE(served, builtin);
  }
}

// Concurrent cold first use of one config builds it once, whether it is
// served from data or characterized, and every thread gets that table.
TEST(TableCache, ConcurrentFirstUseBuildsOnce) {
  constexpr int kThreads = 4;
  for (const ChangePointConfig& cfg : {quick_config(), small_config()}) {
    SCOPED_TRACE("mc_windows " + std::to_string(cfg.mc_windows));
    clear_threshold_table_cache();
    std::vector<const ThresholdTable*> got(kThreads, nullptr);
    std::latch start{kThreads};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        got[i] = shared_threshold_table(cfg).get();
      });
    }
    for (std::thread& t : threads) t.join();

    ASSERT_NE(got[0], nullptr);
    for (const ThresholdTable* t : got) EXPECT_EQ(t, got[0]);
    const TableCacheStats stats = threshold_table_cache_stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, kThreads - 1u);
    EXPECT_EQ(stats.entries, 1u);
  }
}

TEST(TableCache, DistinctConfigsDoNotCollide) {
  clear_threshold_table_cache();
  const ChangePointConfig base = small_config();
  ChangePointConfig other = base;
  other.confidence = 0.99;

  const auto a = shared_threshold_table(base);
  const auto b = shared_threshold_table(other);
  EXPECT_NE(a.get(), b.get());
  // 99% vs 99.5% confidence must characterize different thresholds.
  EXPECT_NE(a->entries().front().second, b->entries().front().second);

  const TableCacheStats stats = threshold_table_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(TableCache, ClearDropsEntriesButOutstandingTablesSurvive) {
  clear_threshold_table_cache();
  const ChangePointConfig cfg = small_config();
  const auto a = shared_threshold_table(cfg);
  clear_threshold_table_cache();
  EXPECT_EQ(threshold_table_cache_stats().entries, 0u);
  // The old shared_ptr still works...
  EXPECT_FALSE(a->entries().empty());
  // ...and the next lookup recharacterizes into a new instance.
  const auto b = shared_threshold_table(cfg);
  EXPECT_NE(a.get(), b.get());
}

// The "cold CLI" guarantee: every consumer that prepares the same detector
// configuration in one process pays the Monte-Carlo characterization at
// most once, no matter how many configs/engines/detectors are built.
TEST(TableCache, RepeatedPreparePaysCharacterizationOnce) {
  clear_threshold_table_cache();
  core::DetectorFactoryConfig c1;
  c1.change_point.mc_windows = 400;
  core::DetectorFactoryConfig c2 = c1;

  c1.prepare();
  c2.prepare();
  auto d1 = core::make_detector(core::DetectorKind::ChangePoint, c1, nullptr);
  auto d2 = core::make_detector(core::DetectorKind::ChangePoint, c2, nullptr);
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(d2, nullptr);
  EXPECT_EQ(c1.thresholds.get(), c2.thresholds.get());

  const TableCacheStats stats = threshold_table_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
}

}  // namespace
}  // namespace dvs::detect
