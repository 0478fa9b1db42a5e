#include "obs/telemetry/snapshotter.hpp"

#include "common/json.hpp"

namespace dvs::obs {

bool TelemetrySnapshotter::open(const std::string& path) {
  file_.open(path);
  if (!file_) return false;
  os_ = &file_;
  return true;
}

void TelemetrySnapshotter::snapshot(double t, const std::string& source,
                                    const MetricsRegistry& reg,
                                    const Live& live) {
  if (os_ == nullptr) return;
  if (min_wall_ > 0.0) {
    const auto now = std::chrono::steady_clock::now();
    if (written_ > 0 &&
        std::chrono::duration<double>(now - last_wall_).count() < min_wall_) {
      return;
    }
    last_wall_ = now;
  }
  ++written_;

  std::ostream& os = *os_;
  os << "{\"t\": " << json::fmt9(t) << ", \"source\": \"" << source << "\"";
  if (!live.empty()) {
    os << ", \"live\": {";
    bool first = true;
    for (const auto& [name, value] : live) {
      os << (first ? "" : ", ") << "\"" << name << "\": " << json::fmt9(value);
      first = false;
    }
    os << "}";
  }
  os << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : reg.counters()) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : reg.gauges()) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << json::fmt9(value);
    first = false;
  }
  os << "}, \"quantiles\": {";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    if (h.count() == 0) continue;
    os << (first ? "" : ", ") << "\"" << name
       << "\": {\"count\": " << h.count()
       << ", \"mean\": " << json::fmt9(h.mean())
       << ", \"p50\": " << json::fmt9(h.sketch().quantile(0.5))
       << ", \"p90\": " << json::fmt9(h.sketch().quantile(0.9))
       << ", \"p99\": " << json::fmt9(h.sketch().quantile(0.99)) << "}";
    first = false;
  }
  os << "}}\n";
  os.flush();
}

}  // namespace dvs::obs
