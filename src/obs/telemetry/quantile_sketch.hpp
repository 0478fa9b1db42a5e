// QuantileSketch: a mergeable streaming quantile estimator with fixed
// worst-case memory.
//
// Small streams are kept exactly (a plain sample buffer, quantiles by
// sort + interpolate, identical to common/stats.hpp::SampleQuantiles); once
// the stream outgrows the buffer the sketch collapses it into an extended
// P² estimator (Jain & Chlamtac 1985; Raatikainen 1987): nine markers whose
// heights chase the {min, 0.25, 0.5, 0.7, 0.9, 0.945, 0.99, 0.995, max}
// rank curve with parabolic adjustments, so p50/p90/p99 queries cost O(1)
// space no matter how many samples flow through.  It answers every
// metrics-JSON percentile: no a-priori range, no clamping, and observed rank
// error well under 0.02 on the workloads we run (docs/OBSERVABILITY.md
// "Sketch accuracy").
//
// Sketches merge: SweepRunner combines the per-point sketches of a cell's
// replicates (and of its workers) into one population sketch.  Merging two
// exact sketches that still fit the buffer is itself exact; otherwise both
// sides are resampled along their inverse CDFs into weighted points and the
// markers are rebuilt at the combined ranks.  Merge results depend only on
// the operand values, never on thread schedule, which is what keeps
// jobs=1 vs jobs=N sweep output byte-identical.
//
// Serialization is a pinned, versioned text format (`dvs-sketch-v1`,
// %.17g doubles) that round-trips bit-exactly — the contract that lets
// workers ship sketches across process boundaries later (ROADMAP item 5).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dvs::obs {

class QuantileSketch {
 public:
  /// Samples kept exactly before collapsing into P² markers.
  static constexpr std::size_t kDefaultExactCapacity = 1024;
  /// Extended-P² marker count for targets {0.5, 0.9, 0.99} (2k + 3).
  static constexpr std::size_t kMarkers = 9;
  /// Inverse-CDF resample resolution used when merging estimated sketches.
  static constexpr std::size_t kMergeResolution = 128;

  explicit QuantileSketch(std::size_t exact_capacity = kDefaultExactCapacity);

  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// True while the sketch still stores every sample verbatim.
  [[nodiscard]] bool exact() const { return exact_; }
  [[nodiscard]] std::size_t exact_capacity() const { return capacity_; }
  /// Exact extrema of the whole stream (kept in both modes); throw if empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Value at rank q in [0, 1].  Exact mode: sort + linear interpolation.
  /// P² mode: piecewise-linear interpolation over the marker rank curve.
  /// Throws std::logic_error if empty, std::domain_error if q is out of
  /// range.
  [[nodiscard]] double quantile(double q) const;

  /// Folds `other` into this sketch.  Exact + exact stays exact when the
  /// union fits the buffer; anything else rebuilds the P² markers from the
  /// weighted union of both inverse CDFs.  Deterministic in the operand
  /// values alone.
  void merge(const QuantileSketch& other);

  /// Pinned text serialization (`dvs-sketch-v1 ...`), %.17g doubles; the
  /// read_text(write_text(s)) round trip is bit-stable.
  void write_text(std::ostream& os) const;
  /// Parses write_text output; throws std::runtime_error on malformed input.
  static QuantileSketch read_text(std::istream& is);

 private:
  /// Target rank of each marker (extended-P² layout for p50/p90/p99).
  static const std::array<double, kMarkers>& marker_probs();

  void collapse_to_p2();
  void fix_marker_positions(double n);
  void p2_add(double x);
  [[nodiscard]] double p2_quantile(double q) const;
  /// Rebuilds the marker state from value/weight pairs sorted by value.
  void init_markers_from_weighted(
      const std::vector<std::pair<double, double>>& pts, std::size_t n);
  /// Appends this sketch's distribution as (value, weight) points.
  void extract_weighted(std::vector<std::pair<double, double>>* out) const;

  std::size_t capacity_;
  bool exact_ = true;
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;

  /// Exact mode: the samples, in insertion order.
  std::vector<double> samples_;

  // P² mode: marker heights, integer marker positions (1-based ranks), and
  // desired (fractional) positions.
  std::array<double, kMarkers> q_{};
  std::array<double, kMarkers> n_{};
  std::array<double, kMarkers> d_{};
};

/// The sketch as one embeddable string: "" when empty (write_text would
/// emit non-finite min/max), else the pinned dvs-sketch-v1 text.
std::string sketch_text(const QuantileSketch& s);
/// Inverse of sketch_text; throws std::runtime_error on malformed text.
QuantileSketch sketch_from_text(const std::string& text);

}  // namespace dvs::obs
