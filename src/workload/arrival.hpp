// Frame arrival process.
//
// "The requests to the multimedia application ... are in form of audio or
// video frame arrivals through the WLAN ... frame interarrival times in the
// active state for both applications can be approximated with an
// exponential distribution" (Section 2.2, Figure 6).  Arrivals here are a
// Poisson process whose rate is piecewise-constant over time (it changes at
// clip boundaries and with network conditions), optionally perturbed by a
// small lognormal network-delay jitter so the empirical distribution fits
// an exponential with a few percent average CDF error — exactly the
// imperfection Figure 6 reports (8%).
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace dvs::workload {

/// Piecewise-constant rate schedule: segment i applies from `start[i]` until
/// `start[i+1]` (the last segment extends to infinity).
class RateSchedule {
 public:
  struct Segment {
    Seconds start;
    Hertz rate;
  };

  /// Appends a segment; starts must be non-decreasing and rates positive.
  void append(Seconds start, Hertz rate);

  [[nodiscard]] bool empty() const { return segments_.empty(); }
  [[nodiscard]] std::size_t size() const { return segments_.size(); }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// Rate in force at time t (throws if t precedes the first segment).
  [[nodiscard]] Hertz rate_at(Seconds t) const;

  /// End of the segment containing t (infinity for the last segment).
  [[nodiscard]] Seconds segment_end(Seconds t) const;

 private:
  std::vector<Segment> segments_;
};

/// Poisson arrival generator over a RateSchedule with optional jitter.
class ArrivalProcess {
 public:
  /// jitter_sigma: lognormal sigma applied multiplicatively to each
  /// interarrival gap (0 = exact Poisson).
  ArrivalProcess(RateSchedule schedule, double jitter_sigma = 0.0);

  /// Next arrival strictly after `t`.  Uses thinning-free segment-by-segment
  /// generation: the exponential gap is drawn at the current segment's rate
  /// and re-drawn past segment boundaries (memorylessness makes this exact
  /// for the piecewise-constant rate).
  [[nodiscard]] Seconds next_after(Seconds t, Rng& rng) const;

  [[nodiscard]] const RateSchedule& schedule() const { return schedule_; }

 private:
  RateSchedule schedule_;
  double jitter_sigma_;
};

}  // namespace dvs::workload
