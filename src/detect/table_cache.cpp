#include "detect/table_cache.hpp"

#include <array>
#include <string>

namespace dvs::detect {

namespace {

/// One characterization recorded off-line from ThresholdTable{cfg}.
struct BuiltinTable {
  ChangePointConfig cfg;
  std::array<double, 20> thresholds;  ///< ascending by ratio
  double scan_margin;
};

// The configs the built-in scenarios and fleets use: ChangePointConfig{}
// and its mc_windows = 500 variant (`quick`, `policy_shootout`,
// `fleet_smoke`, `fleet_city`).  To regenerate after a change to the
// characterization, run detect_test: ThresholdTableIdentity.PinnedReference*
// print the new hexfloats (hex_dump), and TableCache.* compare these tables
// with a fresh Monte-Carlo bit for bit.
const BuiltinTable kBuiltinTables[] = {
    {ChangePointConfig{},
     {-0x1.0245ab5671954p+2, -0x1.a68de613c882cp+1, -0x1.b3e3d047f70abp+0,
      0x1.1960c7a0ca756p-3, 0x1.e97dce93ab10bp+0, 0x1.35421b018d161p+1,
      0x1.5943d0a3ccb51p+1, 0x1.e41f7ec08d6b2p+1, 0x1.02effd044114dp+2,
      0x1.d48990f1443c4p+1, 0x1.d19e69acf79ddp+1, 0x1.2c443bfbd36f2p+2,
      0x1.f46e236b76004p+1, 0x1.01204f731353ep+2, 0x1.c32f426c0d168p+1,
      0x1.aae2143d6d233p+1, 0x1.1a26cd384a51dp+1, -0x1.ec09e59f51826p-1,
      -0x1.a8616e3b58d58p+0, -0x1.1c87754a9dc14p+3},
     0x1.30d76226b8d86p+1},
    {ChangePointConfig{.mc_windows = 500},
     {-0x1.6aeb43635d121p+2, -0x1.20a082a67e117p+1, -0x1.3e3e5a49ca8ccp+0,
      0x1.2491b3bb9181bp+0, 0x1.022d45c18337ep+1, 0x1.c9f93683c3e3ep+0,
      0x1.0abd77d3f81d4p+1, 0x1.b0e330cae617ep+1, 0x1.42ec6df8b7a36p+2,
      0x1.dad63dc3cb89p+1, 0x1.e9cd1a6aee89ap+1, 0x1.1eef47f43787bp+2,
      0x1.cdec4e9d536d9p+1, 0x1.c85ec3f1aee6ep+1, 0x1.902bd405c4b68p+1,
      0x1.326fb64b3c345p-1, 0x1.4f24cd4a26035p+0, -0x1.56b85ba82710ep+1,
      -0x1.78401b0adb6bap+1, -0x1.833339910819ap+3},
     0x1.dda7aa1ebb3c4p+0},
};

// Two configs share a table only when the characterization they describe
// is bit-for-bit the same.
std::string config_key(const ChangePointConfig& cfg) {
  std::string key;
  key.reserve(10 * 17);
  append_key_u64(key, cfg.window);
  append_key_u64(key, cfg.check_interval);
  append_key_u64(key, cfg.min_tail);
  append_key_double(key, cfg.confidence);
  append_key_double(key, cfg.grid_step);
  append_key_u64(key, cfg.grid_points);
  append_key_u64(key, cfg.mc_windows);
  append_key_u64(key, cfg.mc_seed);
  return key;
}

Memo<ThresholdTable>& cache() {
  static Memo<ThresholdTable> c;
  return c;
}

}  // namespace

std::shared_ptr<const ThresholdTable> shared_threshold_table(
    const ChangePointConfig& cfg) {
  return cache().get(config_key(cfg), [&] {
    for (const BuiltinTable& b : kBuiltinTables) {
      if (b.cfg == cfg) {
        return std::make_shared<const ThresholdTable>(cfg, b.thresholds,
                                                      b.scan_margin);
      }
    }
    return std::make_shared<const ThresholdTable>(cfg);
  });
}

TableCacheStats threshold_table_cache_stats() { return cache().stats(); }

void clear_threshold_table_cache() { cache().clear(); }

}  // namespace dvs::detect
