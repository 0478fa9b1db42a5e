#include "obs/telemetry/openmetrics.hpp"

#include <cctype>
#include <sstream>

#include "common/json.hpp"

namespace dvs::obs {

std::string openmetrics_name(const std::string& name) {
  std::string out = "dvs_";
  for (char c : name) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_openmetrics(const MetricsRegistry& reg, std::ostream& os) {
  for (const auto& [name, value] : reg.counters()) {
    const std::string n = openmetrics_name(name);
    os << "# TYPE " << n << " counter\n";
    os << n << "_total " << value << "\n";
  }
  for (const auto& [name, value] : reg.gauges()) {
    const std::string n = openmetrics_name(name);
    os << "# TYPE " << n << " gauge\n";
    os << n << " " << json::fmt9(value) << "\n";
  }
  for (const auto& [name, h] : reg.histograms()) {
    const std::string n = openmetrics_name(name);
    os << "# TYPE " << n << " summary\n";
    if (h.count() > 0) {
      os << n << "{quantile=\"0.5\"} " << json::fmt9(h.sketch().quantile(0.5))
         << "\n";
      os << n << "{quantile=\"0.9\"} " << json::fmt9(h.sketch().quantile(0.9))
         << "\n";
      os << n << "{quantile=\"0.99\"} " << json::fmt9(h.sketch().quantile(0.99))
         << "\n";
    }
    os << n << "_count " << h.count() << "\n";
    os << n << "_sum " << json::fmt9(h.sum()) << "\n";
    // Samples outside the registered range, visible to scrapers as their
    // own counter; a histogram registered unbounded has no range to leave.
    if (!h.bounded()) continue;
    const std::string cn = n + "_clamped";
    os << "# TYPE " << cn << " counter\n";
    os << cn << "_total " << h.out_of_range() << "\n";
  }
  os << "# EOF\n";
}

void write_openmetrics_atomic(const MetricsRegistry& reg,
                              const std::string& path) {
  std::ostringstream os;
  write_openmetrics(reg, os);
  json::write_file_atomic(path, os.str());
}

}  // namespace dvs::obs
