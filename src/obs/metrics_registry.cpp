#include "obs/metrics_registry.hpp"

#include <stdexcept>

#include "common/json.hpp"

namespace dvs::obs {

double HistogramMetric::mean() const {
  if (sketch_.empty()) {
    throw std::logic_error("HistogramMetric::mean(): no samples");
  }
  return sum_ / static_cast<double>(count());
}

void HistogramMetric::merge(const HistogramMetric& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_) {
    throw std::invalid_argument(
        "HistogramMetric::merge: incompatible histogram ranges");
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  sum_ += other.sum_;
  sketch_.merge(other.sketch_);
}

void HistogramMetric::absorb_sketch(const QuantileSketch& s, double sum) {
  if (s.empty()) return;
  sum_ += sum;
  sketch_.merge(s);
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, HistogramMetric{lo, hi}).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const HistogramMetric* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, HistogramMetric{h.lo(), h.hi()}).first;
    }
    it->second.merge(h);
  }
  // Gauges deliberately skipped (see header).
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::out_of_range_histograms(double threshold) const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, h] : histograms_) {
    if (h.count() == 0) continue;
    const double frac =
        static_cast<double>(h.out_of_range()) / static_cast<double>(h.count());
    if (frac > threshold) out.emplace_back(name, frac);
  }
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"dvs-metrics-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << name
       << "\": " << json::fmt9(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << name
       << "\": {\"count\": " << h.count();
    if (h.count() > 0) {
      os << ", \"mean\": " << json::fmt9(h.mean())
         << ", \"min\": " << json::fmt9(h.min())
         << ", \"max\": " << json::fmt9(h.max())
         << ", \"p50\": " << json::fmt9(h.sketch().quantile(0.5))
         << ", \"p90\": " << json::fmt9(h.sketch().quantile(0.9))
         << ", \"p99\": " << json::fmt9(h.sketch().quantile(0.99))
         << ", \"underflow\": " << h.underflow()
         << ", \"overflow\": " << h.overflow();
    }
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace dvs::obs
