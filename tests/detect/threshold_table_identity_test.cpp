// Bit-identity of the Monte-Carlo threshold characterization.
//
// The ThresholdTable constructor is a performance-critical path (it is most
// of every process's cold start), and its output feeds every change-point
// decision, so any rewrite must reproduce the historical tables bit for
// bit.  Two independent checks:
//
//  - PinnedReference: hexfloat thresholds and scan margins of the default
//    config, the mc_windows = 500 config of the `quick` and `fleet_smoke`
//    scenarios, and one odd config, recorded from the original two-stage
//    loop.
//  - MatchesTwoStageOracle: the original two-stage loop, kept below as the
//    oracle (draw every window with Rng::exponential, rescan it with the
//    `j % step` candidate walk per ratio), against the table over seeded
//    random configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {
namespace {

// ---- the oracle: the original characterization, verbatim in arithmetic ----

double oracle_max_log_likelihood_ratio(const std::vector<double>& window,
                                       double ratio,
                                       const ChangePointConfig& cfg) {
  const std::size_t m = window.size();
  if (m < cfg.min_tail) return -std::numeric_limits<double>::infinity();
  const double log_r = std::log(ratio);
  double best = -std::numeric_limits<double>::infinity();
  double tail_sum = 0.0;
  for (std::size_t j = m; j-- > 0;) {
    tail_sum += window[j];
    const std::size_t tail_len = m - j;
    if (tail_len < cfg.min_tail) continue;
    if (j % std::max<std::size_t>(cfg.check_interval, 1) != 0) continue;
    const double lnp =
        static_cast<double>(tail_len) * log_r - (ratio - 1.0) * tail_sum;
    best = std::max(best, lnp);
  }
  return best;
}

struct OracleTable {
  std::vector<std::pair<double, double>> entries;
  double scan_margin = 0.0;
};

OracleTable oracle_table(const ChangePointConfig& cfg) {
  std::vector<double> ratios;
  for (std::size_t j = cfg.grid_points; j >= 1; --j) {
    ratios.push_back(std::pow(cfg.grid_step, -static_cast<double>(j)));
  }
  for (std::size_t j = 1; j <= cfg.grid_points; ++j) {
    ratios.push_back(std::pow(cfg.grid_step, static_cast<double>(j)));
  }
  OracleTable out;
  Rng rng{cfg.mc_seed};
  std::vector<double> window(cfg.window);
  for (double r : ratios) {
    SampleQuantiles stat;
    for (std::size_t w = 0; w < cfg.mc_windows; ++w) {
      for (auto& x : window) x = rng.exponential(1.0);
      stat.add(oracle_max_log_likelihood_ratio(window, r, cfg));
    }
    out.entries.emplace_back(r, stat.quantile(cfg.confidence));
  }
  SampleQuantiles margins;
  for (std::size_t w = 0; w < cfg.mc_windows; ++w) {
    for (auto& x : window) x = rng.exponential(1.0);
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      const double stat =
          oracle_max_log_likelihood_ratio(window, ratios[i], cfg);
      best = std::max(best, stat - out.entries[i].second);
    }
    margins.add(best);
  }
  out.scan_margin = std::max(0.0, margins.quantile(cfg.confidence));
  return out;
}

// ---- helpers ----------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// The table's thresholds and margin as one hexfloat list, for a failure
/// message that doubles as the regeneration recipe.
std::string hex_dump(const ThresholdTable& t) {
  std::string s = "{";
  for (const auto& e : t.entries()) s += hex(e.second) + ", ";
  return s + "}, margin " + hex(t.scan_margin());
}

void expect_pinned(const ChangePointConfig& cfg,
                   const std::vector<double>& thresholds, double margin) {
  const ThresholdTable table{cfg};
  ASSERT_EQ(table.entries().size(), thresholds.size()) << hex_dump(table);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    EXPECT_EQ(bits(table.entries()[i].second), bits(thresholds[i]))
        << "entry " << i << ": " << hex(table.entries()[i].second) << " vs "
        << hex(thresholds[i]) << "\nactual: " << hex_dump(table);
  }
  EXPECT_EQ(bits(table.scan_margin()), bits(margin))
      << hex(table.scan_margin()) << " vs " << hex(margin);
}

// ---- tests ------------------------------------------------------------

// Recorded from the original two-stage loop: every threshold of entries(),
// ascending by ratio, then scan_margin().
const std::vector<double> kDefaultThresholds = {
    -0x1.0245ab5671954p+2, -0x1.a68de613c882cp+1, -0x1.b3e3d047f70abp+0,
    0x1.1960c7a0ca756p-3, 0x1.e97dce93ab10bp+0, 0x1.35421b018d161p+1,
    0x1.5943d0a3ccb51p+1, 0x1.e41f7ec08d6b2p+1, 0x1.02effd044114dp+2,
    0x1.d48990f1443c4p+1, 0x1.d19e69acf79ddp+1, 0x1.2c443bfbd36f2p+2,
    0x1.f46e236b76004p+1, 0x1.01204f731353ep+2, 0x1.c32f426c0d168p+1,
    0x1.aae2143d6d233p+1, 0x1.1a26cd384a51dp+1, -0x1.ec09e59f51826p-1,
    -0x1.a8616e3b58d58p+0, -0x1.1c87754a9dc14p+3};
constexpr double kDefaultMargin = 0x1.30d76226b8d86p+1;

const std::vector<double> kQuickThresholds = {
    -0x1.6aeb43635d121p+2, -0x1.20a082a67e117p+1, -0x1.3e3e5a49ca8ccp+0,
    0x1.2491b3bb9181bp+0, 0x1.022d45c18337ep+1, 0x1.c9f93683c3e3ep+0,
    0x1.0abd77d3f81d4p+1, 0x1.b0e330cae617ep+1, 0x1.42ec6df8b7a36p+2,
    0x1.dad63dc3cb89p+1, 0x1.e9cd1a6aee89ap+1, 0x1.1eef47f43787bp+2,
    0x1.cdec4e9d536d9p+1, 0x1.c85ec3f1aee6ep+1, 0x1.902bd405c4b68p+1,
    0x1.326fb64b3c345p-1, 0x1.4f24cd4a26035p+0, -0x1.56b85ba82710ep+1,
    -0x1.78401b0adb6bap+1, -0x1.833339910819ap+3};
constexpr double kQuickMargin = 0x1.dda7aa1ebb3c4p+0;

const std::vector<double> kOddThresholds = {
    0x1.d5c27b67f4f05p+1, 0x1.0377359a3977p+2, 0x1.943465de7bb23p+1,
    0x1.3014040618bcbp+1, 0x1.e3dfdc1e9c872p+1, 0x1.23126aa8c35bdp+2};
constexpr double kOddMargin = 0x1.0581e0c92b588p+0;

TEST(ThresholdTableIdentity, PinnedReferenceDefaultConfig) {
  expect_pinned(ChangePointConfig{}, kDefaultThresholds, kDefaultMargin);
}

TEST(ThresholdTableIdentity, PinnedReferenceQuickConfig) {
  ChangePointConfig cfg;
  cfg.mc_windows = 500;
  expect_pinned(cfg, kQuickThresholds, kQuickMargin);
}

TEST(ThresholdTableIdentity, PinnedReferenceOddConfig) {
  ChangePointConfig cfg;
  cfg.window = 37;
  cfg.check_interval = 3;
  cfg.min_tail = 4;
  cfg.mc_windows = 777;
  cfg.grid_points = 3;
  expect_pinned(cfg, kOddThresholds, kOddMargin);
}

TEST(ThresholdTableIdentity, MatchesTwoStageOracle) {
  Rng pick{20261018};
  const double confidences[] = {0.9, 0.95, 0.99, 0.995, 0.999};
  for (int c = 0; c < 24; ++c) {
    ChangePointConfig cfg;
    cfg.min_tail = 1 + pick.uniform_index(8);
    cfg.window = 2 * cfg.min_tail + pick.uniform_index(120);
    cfg.check_interval = 1 + pick.uniform_index(12);
    cfg.grid_step = pick.uniform(1.05, 1.6);
    cfg.grid_points = 1 + pick.uniform_index(6);
    cfg.mc_windows = 200 + pick.uniform_index(300);
    cfg.confidence = confidences[pick.uniform_index(5)];
    cfg.mc_seed = pick.next_u64();
    SCOPED_TRACE("config " + std::to_string(c) + ": window " +
                 std::to_string(cfg.window) + ", check_interval " +
                 std::to_string(cfg.check_interval) + ", min_tail " +
                 std::to_string(cfg.min_tail) + ", mc_windows " +
                 std::to_string(cfg.mc_windows));

    const ThresholdTable table{cfg};
    const OracleTable want = oracle_table(cfg);
    ASSERT_EQ(table.entries().size(), want.entries.size());
    for (std::size_t i = 0; i < want.entries.size(); ++i) {
      EXPECT_EQ(bits(table.entries()[i].first), bits(want.entries[i].first));
      EXPECT_EQ(bits(table.entries()[i].second), bits(want.entries[i].second))
          << "entry " << i << ": " << hex(table.entries()[i].second) << " vs "
          << hex(want.entries[i].second);
    }
    EXPECT_EQ(bits(table.scan_margin()), bits(want.scan_margin))
        << hex(table.scan_margin()) << " vs " << hex(want.scan_margin);
  }
}

}  // namespace
}  // namespace dvs::detect
