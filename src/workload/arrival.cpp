#include "workload/arrival.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace dvs::workload {

void RateSchedule::append(Seconds start, Hertz rate) {
  DVS_CHECK_MSG(rate.value() > 0.0, "RateSchedule: rate must be > 0");
  if (!segments_.empty()) {
    DVS_CHECK_MSG(start >= segments_.back().start,
                  "RateSchedule: starts must be non-decreasing");
  }
  segments_.push_back({start, rate});
}

Hertz RateSchedule::rate_at(Seconds t) const {
  DVS_CHECK_MSG(!segments_.empty(), "RateSchedule: empty schedule");
  DVS_CHECK_MSG(t >= segments_.front().start, "RateSchedule: t precedes schedule");
  // Schedules are short (one segment per clip); linear scan is fine and
  // avoids subtle off-by-one with equal starts.
  Hertz r = segments_.front().rate;
  for (const auto& s : segments_) {
    if (s.start <= t) {
      r = s.rate;
    } else {
      break;
    }
  }
  return r;
}

Seconds RateSchedule::segment_end(Seconds t) const {
  DVS_CHECK_MSG(!segments_.empty(), "RateSchedule: empty schedule");
  for (const auto& s : segments_) {
    if (s.start > t) return s.start;
  }
  return Seconds{std::numeric_limits<double>::infinity()};
}

ArrivalProcess::ArrivalProcess(RateSchedule schedule, double jitter_sigma)
    : schedule_(std::move(schedule)), jitter_sigma_(jitter_sigma) {
  DVS_CHECK_MSG(!schedule_.empty(), "ArrivalProcess: empty schedule");
  DVS_CHECK_MSG(jitter_sigma_ >= 0.0 && jitter_sigma_ < 1.0,
                "ArrivalProcess: jitter sigma out of range");
}

Seconds ArrivalProcess::next_after(Seconds t, Rng& rng) const {
  Seconds cur = t;
  for (;;) {
    const Hertz r = schedule_.rate_at(cur);
    double gap = rng.exponential(r.value());
    if (jitter_sigma_ > 0.0) {
      // Unit-mean lognormal multiplicative jitter (network delay variation).
      gap *= std::exp(rng.normal(-0.5 * jitter_sigma_ * jitter_sigma_, jitter_sigma_));
    }
    const Seconds candidate = cur + Seconds{gap};
    const Seconds seg_end = schedule_.segment_end(cur);
    if (candidate <= seg_end) return candidate;
    // The gap crosses into a segment with a different rate; restart the draw
    // from the boundary (valid by memorylessness of the exponential).
    cur = seg_end;
  }
}

}  // namespace dvs::workload
