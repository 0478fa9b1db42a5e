// Workload perturbations: composable, deterministic transforms over a
// generated FrameTrace.
//
// The paper evaluates change-point DVS on well-behaved jittered-Poisson
// traces; these transforms deliberately break those assumptions — rate
// spikes and steps the detectors must chase, bursty (coalesced) arrivals
// that destroy the exponential interarrival model, heavy-tailed decode
// work, truncated and corrupted streams — so the governor's
// graceful-degradation path can be exercised and scored.
//
// Transforms are pure functions of (trace, fault, rng): the input trace is
// immutable and a new FrameTrace is returned, with the ground-truth rate
// segments rewritten to match the perturbed stream (so the ideal detector
// and detection-latency scoring stay honest).  A fault's time window is
// expressed relative to the trace's own start, which makes the same
// FaultSpec meaningful for both fresh traces and session items spliced at
// arbitrary offsets.  Determinism: all randomness flows through the caller's
// Rng, seeded from the scenario's fault substream.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "workload/trace.hpp"

namespace dvs::fault {

/// Multiplies the arrival rate by `factor` (>= 1) inside a window by
/// inserting extra frames; ground-truth arrival segments scale to match.
struct RateSpike {
  Seconds start{20.0};
  Seconds duration{30.0};
  double factor = 10.0;
};

/// Permanent rate step at `at` (a spike that never ends).
struct RateStep {
  Seconds at{30.0};
  double factor = 3.0;
};

/// Coalesces arrivals into back-to-back bursts: each frame in the window
/// lands on the previous burst anchor's timestamp with `coalesce_prob`
/// (bursts capped at `max_burst` frames).  The mean rate is preserved; the
/// interarrival distribution is not remotely exponential any more.
struct BurstArrivals {
  Seconds start{0.0};
  Seconds duration{1e9};
  double coalesce_prob = 0.5;
  int max_burst = 8;
};

/// Multiplies per-frame decode work by a mean-one Pareto(shape) draw, so
/// the mean service rate is unchanged but the tail is heavy (shape > 1;
/// smaller = heavier).
struct HeavyTailWork {
  Seconds start{0.0};
  Seconds duration{1e9};
  double shape = 1.5;
};

/// Cuts the trace off `at` seconds after its start (stream died mid-clip).
struct TruncateTrace {
  Seconds at{60.0};
};

/// With probability `prob` per frame, multiplies its decode work by
/// `factor` (corrupted frames that take pathologically long to decode).
struct CorruptWork {
  double prob = 0.02;
  double factor = 8.0;
};

using TraceFault = std::variant<RateSpike, RateStep, BurstArrivals,
                                HeavyTailWork, TruncateTrace, CorruptWork>;

/// Applies one fault; all randomness comes from `rng`.
workload::FrameTrace apply_fault(const workload::FrameTrace& trace,
                                 const TraceFault& fault, Rng& rng);

/// Applies a fault list left-to-right through one shared `rng` (so a
/// multi-item session consumes one deterministic substream in item order).
workload::FrameTrace apply_faults(const workload::FrameTrace& trace,
                                  std::span<const TraceFault> faults, Rng& rng);

/// Convenience: seeds a fresh Rng and applies the list.
workload::FrameTrace apply_faults(const workload::FrameTrace& trace,
                                  std::span<const TraceFault> faults,
                                  std::uint64_t seed);

}  // namespace dvs::fault
