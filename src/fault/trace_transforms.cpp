#include "fault/trace_transforms.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace dvs::fault {

namespace {

using workload::FrameTrace;
using workload::RateTruth;
using workload::TraceFrame;

/// Trace-relative time zero: the first ground-truth segment start (0 for a
/// freshly built trace, the splice offset for a shifted session item).
Seconds trace_origin(const FrameTrace& t) { return t.truth().front().time; }

Seconds trace_end(const FrameTrace& t) {
  return trace_origin(t) + t.duration();
}

std::vector<TraceFrame> copy_frames(const FrameTrace& t) {
  return {t.frames().begin(), t.frames().end()};
}

std::vector<RateTruth> copy_truth(const FrameTrace& t) {
  return {t.truth().begin(), t.truth().end()};
}

void renumber(std::vector<TraceFrame>& frames) {
  for (std::size_t i = 0; i < frames.size(); ++i) frames[i].id = i;
}

/// Multiplies the ground-truth arrival rate by `factor` over [t0, t1),
/// splitting segments at the window edges so rates outside stay exact.
std::vector<RateTruth> scale_arrival_truth(std::vector<RateTruth> truth,
                                           Seconds t0, Seconds t1,
                                           double factor) {
  std::vector<RateTruth> out;
  out.reserve(truth.size() + 2);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const RateTruth& seg = truth[i];
    const Seconds seg_end =
        i + 1 < truth.size() ? truth[i + 1].time : Seconds{1e18};
    const Seconds lo = std::max(seg.time, t0);
    const Seconds hi = std::min(seg_end, t1);
    if (lo >= hi) {  // no overlap with the window
      out.push_back(seg);
      continue;
    }
    if (seg.time < lo) out.push_back(seg);  // prefix at the original rate
    out.push_back(RateTruth{lo, seg.arrival_rate * factor,
                            seg.service_rate_at_max});
    if (hi < seg_end) {
      out.push_back(RateTruth{hi, seg.arrival_rate, seg.service_rate_at_max});
    }
  }
  return out;
}

/// Shared mechanics of RateSpike and RateStep: inserts `factor - 1` extra
/// frames per original frame inside [t0, t1), uniformly placed.
FrameTrace inflate_rate(const FrameTrace& t, Seconds t0, Seconds t1,
                        double factor, Rng& rng) {
  DVS_CHECK_MSG(factor >= 1.0, "rate fault: factor must be >= 1");
  t1 = std::min(t1, trace_end(t));
  std::vector<TraceFrame> frames = copy_frames(t);
  const double extra_mean = factor - 1.0;
  const double whole = std::floor(extra_mean);
  const double frac = extra_mean - whole;
  std::vector<TraceFrame> extras;
  for (const TraceFrame& f : t.frames()) {
    if (f.arrival < t0 || f.arrival >= t1) continue;
    const int n = static_cast<int>(whole) + (rng.bernoulli(frac) ? 1 : 0);
    for (int k = 0; k < n; ++k) {
      extras.push_back(TraceFrame{0,
                                  Seconds{rng.uniform(t0.value(), t1.value())},
                                  f.work * rng.uniform(0.9, 1.1)});
    }
  }
  if (extras.empty()) return FrameTrace{t.type(), std::move(frames),
                                        copy_truth(t), t.duration()};
  frames.insert(frames.end(), extras.begin(), extras.end());
  std::stable_sort(frames.begin(), frames.end(),
                   [](const TraceFrame& a, const TraceFrame& b) {
                     return a.arrival < b.arrival;
                   });
  renumber(frames);
  return FrameTrace{t.type(), std::move(frames),
                    scale_arrival_truth(copy_truth(t), t0, t1, factor),
                    t.duration()};
}

struct ApplyVisitor {
  const FrameTrace& t;
  Rng& rng;

  FrameTrace operator()(const RateSpike& f) const {
    DVS_CHECK_MSG(f.duration.value() > 0.0, "RateSpike: duration must be > 0");
    const Seconds t0 = trace_origin(t) + f.start;
    return inflate_rate(t, t0, t0 + f.duration, f.factor, rng);
  }

  FrameTrace operator()(const RateStep& f) const {
    const Seconds t0 = trace_origin(t) + f.at;
    return inflate_rate(t, t0, trace_end(t), f.factor, rng);
  }

  FrameTrace operator()(const BurstArrivals& f) const {
    DVS_CHECK_MSG(f.coalesce_prob >= 0.0 && f.coalesce_prob <= 1.0,
                  "BurstArrivals: probability out of range");
    DVS_CHECK_MSG(f.max_burst >= 1, "BurstArrivals: max_burst must be >= 1");
    const Seconds t0 = trace_origin(t) + f.start;
    const Seconds t1 = t0 + f.duration;
    std::vector<TraceFrame> frames = copy_frames(t);
    Seconds anchor{0.0};
    int burst = 0;
    for (TraceFrame& fr : frames) {
      if (fr.arrival < t0 || fr.arrival >= t1) {
        burst = 0;
        continue;
      }
      if (burst >= 1 && burst < f.max_burst && rng.bernoulli(f.coalesce_prob)) {
        fr.arrival = anchor;  // rides the previous burst (coincident arrival)
        ++burst;
      } else {
        anchor = fr.arrival;
        burst = 1;
      }
    }
    return FrameTrace{t.type(), std::move(frames), copy_truth(t), t.duration()};
  }

  FrameTrace operator()(const HeavyTailWork& f) const {
    DVS_CHECK_MSG(f.shape > 1.0, "HeavyTailWork: shape must be > 1");
    const Seconds t0 = trace_origin(t) + f.start;
    const Seconds t1 = t0 + f.duration;
    // Pareto(shape, scale) has mean shape*scale/(shape-1); this scale makes
    // the multiplier mean-one so only the tail changes, not the load.
    const double scale = (f.shape - 1.0) / f.shape;
    std::vector<TraceFrame> frames = copy_frames(t);
    for (TraceFrame& fr : frames) {
      if (fr.arrival < t0 || fr.arrival >= t1) continue;
      fr.work *= rng.pareto(f.shape, scale);
    }
    return FrameTrace{t.type(), std::move(frames), copy_truth(t), t.duration()};
  }

  FrameTrace operator()(const TruncateTrace& f) const {
    DVS_CHECK_MSG(f.at.value() > 0.0, "TruncateTrace: cut must be > 0");
    if (f.at >= t.duration()) {  // cut lands past the end: no-op
      return FrameTrace{t.type(), copy_frames(t), copy_truth(t), t.duration()};
    }
    const Seconds cutoff = trace_origin(t) + f.at;
    std::vector<TraceFrame> frames;
    for (const TraceFrame& fr : t.frames()) {
      if (fr.arrival < cutoff) frames.push_back(fr);
    }
    DVS_CHECK_MSG(!frames.empty(), "TruncateTrace: cut leaves no frames");
    std::vector<RateTruth> truth;
    for (const RateTruth& seg : t.truth()) {
      if (seg.time < cutoff || truth.empty()) truth.push_back(seg);
    }
    renumber(frames);
    return FrameTrace{t.type(), std::move(frames), std::move(truth), f.at};
  }

  FrameTrace operator()(const CorruptWork& f) const {
    DVS_CHECK_MSG(f.prob >= 0.0 && f.prob <= 1.0,
                  "CorruptWork: probability out of range");
    DVS_CHECK_MSG(f.factor > 0.0, "CorruptWork: factor must be > 0");
    std::vector<TraceFrame> frames = copy_frames(t);
    for (TraceFrame& fr : frames) {
      if (rng.bernoulli(f.prob)) fr.work *= f.factor;
    }
    return FrameTrace{t.type(), std::move(frames), copy_truth(t), t.duration()};
  }
};

}  // namespace

workload::FrameTrace apply_fault(const workload::FrameTrace& trace,
                                 const TraceFault& fault, Rng& rng) {
  return std::visit(ApplyVisitor{trace, rng}, fault);
}

workload::FrameTrace apply_faults(const workload::FrameTrace& trace,
                                  std::span<const TraceFault> faults,
                                  Rng& rng) {
  if (faults.empty()) return trace;
  FrameTrace out = apply_fault(trace, faults.front(), rng);
  for (std::size_t i = 1; i < faults.size(); ++i) {
    out = apply_fault(out, faults[i], rng);
  }
  return out;
}

workload::FrameTrace apply_faults(const workload::FrameTrace& trace,
                                  std::span<const TraceFault> faults,
                                  std::uint64_t seed) {
  Rng rng{seed};
  return apply_faults(trace, faults, rng);
}

}  // namespace dvs::fault
