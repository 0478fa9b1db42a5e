// MetricsRegistry: named counters, gauges, and histograms for one run.
//
// Counters are monotone event tallies, gauges hold the latest value of a
// measurement (or an accumulated wall-clock total), and a histogram is one
// mergeable QuantileSketch (exact count/min/max, streaming p50/p90/p99 with
// no range clamping), the running sum behind its mean, and two counters of
// the samples that fell outside its registered [lo, hi).  The registry
// serializes to a single JSON object — the payload behind
// `dvs_sim --metrics-json` — and to the OpenMetrics text format
// (obs/telemetry/openmetrics.hpp).
//
// Registries merge (merge_from): counters add, histograms add their sums and
// range counters and merge their sketches; gauges are skipped — a gauge is a
// point-in-time reading whose sum or last-writer value would both lie, and
// every derivable aggregate already lives in the histograms.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/telemetry/quantile_sketch.hpp"

namespace dvs::obs {

/// The quantile sketch, sample sum, and out-of-range counts of one sample
/// stream registered over the range [lo, hi).
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi) : lo_(lo), hi_(hi) {}

  void add(double x) {
    if (x < lo_) {
      ++underflow_;
    } else if (x >= hi_) {
      ++overflow_;
    }
    sum_ += x;
    sketch_.add(x);
  }

  [[nodiscard]] const QuantileSketch& sketch() const { return sketch_; }
  [[nodiscard]] std::size_t count() const { return sketch_.count(); }
  [[nodiscard]] double sum() const { return sum_; }
  /// sum() / count(); like min() and max(), throws if empty.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const { return sketch_.min(); }
  [[nodiscard]] double max() const { return sketch_.max(); }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  /// False for a histogram registered over (-inf, inf): nothing can fall
  /// outside it, so it has no out-of-range counts to export.
  [[nodiscard]] bool bounded() const {
    return lo_ > -std::numeric_limits<double>::infinity() ||
           hi_ < std::numeric_limits<double>::infinity();
  }
  /// Samples below lo() and at or above hi().  Informational only: the
  /// sketch, sum, and extrema always see the true values.
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t out_of_range() const {
    return underflow_ + overflow_;
  }

  /// Folds another metric registered over the same [lo, hi) into this one;
  /// throws std::invalid_argument for any other range.
  void merge(const HistogramMetric& other);

  /// Folds in a bare sketch plus its sample sum — the form in which delay
  /// distributions come back from serialized job artifacts, which carry a
  /// dvs-sketch-v1 text and a sum but no range counts.  The range counters
  /// are left untouched.  No-op when the sketch is empty.
  void absorb_sketch(const QuantileSketch& s, double sum);

 private:
  double lo_;
  double hi_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  double sum_ = 0.0;
  QuantileSketch sketch_;
};

class MetricsRegistry {
 public:
  /// Get-or-create; returned references stay valid for the registry's
  /// lifetime (node-based map).
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  double& gauge(const std::string& name) { return gauges_[name]; }
  HistogramMetric& histogram(const std::string& name, double lo, double hi);

  /// Read-only lookups (0 / nullptr when absent) for tests and reports.
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] const HistogramMetric* find_histogram(
      const std::string& name) const;

  /// Ordered iteration for exporters (telemetry snapshots, OpenMetrics).
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, HistogramMetric>& histograms()
      const {
    return histograms_;
  }

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Folds another registry in: counters add, histograms merge (created
  /// here with the other's range when absent), gauges are skipped (see
  /// file header).
  void merge_from(const MetricsRegistry& other);

  /// Histograms with more than `threshold` of their samples outside their
  /// registered range, as (name, out-of-range fraction) pairs — the basis of
  /// the CLI's "histogram range too narrow" warning.
  [[nodiscard]] std::vector<std::pair<std::string, double>>
  out_of_range_histograms(double threshold) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,min,
  /// max,p50,p90,p99,underflow,overflow}}} — percentiles come from the
  /// quantile sketch.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
};

}  // namespace dvs::obs
