#include "detect/table_cache.hpp"

#include <string>

namespace dvs::detect {

namespace {

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
    return std::make_shared<const ThresholdTable>(cfg);
  });
}

TableCacheStats threshold_table_cache_stats() { return cache().stats(); }

void clear_threshold_table_cache() { cache().clear(); }

}  // namespace dvs::detect
