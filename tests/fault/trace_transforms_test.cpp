// Workload trace transforms: frame/truth rewriting, determinism, and the
// invariants every transform must preserve (sorted arrivals, sequential
// ids, honest ground truth).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fault/trace_transforms.hpp"

namespace dvs::fault {
namespace {

using workload::FrameTrace;
using workload::MediaType;
using workload::RateTruth;
using workload::TraceFrame;

/// 10 Hz arrivals over 10 s, unit work, one truth segment.
FrameTrace synthetic_trace() {
  std::vector<TraceFrame> frames;
  for (int i = 0; i < 100; ++i) {
    frames.push_back(TraceFrame{static_cast<std::uint64_t>(i),
                                seconds(0.1 * i), 1.0});
  }
  std::vector<RateTruth> truth{RateTruth{seconds(0.0), hertz(10.0),
                                         hertz(100.0)}};
  return FrameTrace{MediaType::Mp3Audio, std::move(frames), std::move(truth),
                    seconds(10.0)};
}

std::size_t frames_in(const FrameTrace& t, double lo, double hi) {
  std::size_t n = 0;
  for (const TraceFrame& f : t.frames()) {
    if (f.arrival.value() >= lo && f.arrival.value() < hi) ++n;
  }
  return n;
}

void expect_well_formed(const FrameTrace& t) {
  for (std::size_t i = 0; i < t.frames().size(); ++i) {
    EXPECT_EQ(t.frames()[i].id, i);
    if (i > 0) {
      EXPECT_GE(t.frames()[i].arrival.value(),
                t.frames()[i - 1].arrival.value());
    }
  }
}

TEST(TraceTransforms, RateSpikeMultipliesFramesAndTruthInsideWindow) {
  const FrameTrace base = synthetic_trace();
  Rng rng{11};
  const FrameTrace out =
      apply_fault(base, RateSpike{seconds(2.0), seconds(3.0), 4.0}, rng);
  expect_well_formed(out);

  // [2, 5) held 30 frames; a 4x spike inserts ~3 extras per original.
  const std::size_t in_window = frames_in(out, 2.0, 5.0);
  EXPECT_NEAR(static_cast<double>(in_window), 120.0, 15.0);
  // Outside the window nothing changes.
  EXPECT_EQ(frames_in(out, 0.0, 2.0), frames_in(base, 0.0, 2.0));
  EXPECT_EQ(frames_in(out, 5.0, 10.0), frames_in(base, 5.0, 10.0));

  // Ground truth follows the spike, so the ideal detector stays honest.
  EXPECT_DOUBLE_EQ(out.true_arrival_rate(seconds(1.0)).value(), 10.0);
  EXPECT_DOUBLE_EQ(out.true_arrival_rate(seconds(3.5)).value(), 40.0);
  EXPECT_DOUBLE_EQ(out.true_arrival_rate(seconds(6.0)).value(), 10.0);
  EXPECT_DOUBLE_EQ(out.duration().value(), 10.0);
}

TEST(TraceTransforms, RateStepInflatesUntilTraceEnd) {
  const FrameTrace base = synthetic_trace();
  Rng rng{12};
  const FrameTrace out = apply_fault(base, RateStep{seconds(5.0), 3.0}, rng);
  expect_well_formed(out);
  EXPECT_EQ(frames_in(out, 0.0, 5.0), 50u);
  EXPECT_NEAR(static_cast<double>(frames_in(out, 5.0, 10.0)), 150.0, 15.0);
  EXPECT_DOUBLE_EQ(out.true_arrival_rate(seconds(9.0)).value(), 30.0);
}

TEST(TraceTransforms, TruncateCutsFramesTruthAndDuration) {
  const FrameTrace base = synthetic_trace();
  Rng rng{13};
  const FrameTrace out = apply_fault(base, TruncateTrace{seconds(4.0)}, rng);
  EXPECT_EQ(out.size(), 40u);
  EXPECT_DOUBLE_EQ(out.duration().value(), 4.0);
  for (const TraceFrame& f : out.frames()) {
    EXPECT_LT(f.arrival.value(), 4.0);
  }
  // A cut past the end is the identity.
  const FrameTrace same = apply_fault(base, TruncateTrace{seconds(60.0)}, rng);
  EXPECT_EQ(same.size(), base.size());
  EXPECT_DOUBLE_EQ(same.duration().value(), 10.0);
}

TEST(TraceTransforms, CorruptWorkScalesEveryFrameAtProbabilityOne) {
  const FrameTrace base = synthetic_trace();
  Rng rng{14};
  const FrameTrace out = apply_fault(base, CorruptWork{1.0, 8.0}, rng);
  for (const TraceFrame& f : out.frames()) {
    EXPECT_DOUBLE_EQ(f.work, 8.0);
  }
  // Arrivals and truth untouched: corruption is a service-side fault.
  EXPECT_EQ(out.size(), base.size());
  EXPECT_DOUBLE_EQ(out.true_arrival_rate(seconds(1.0)).value(), 10.0);
}

TEST(TraceTransforms, HeavyTailWorkKeepsMeanLoadButGrowsTheTail) {
  // Mean-one Pareto multiplier: over many frames the average work stays
  // near 1 while the max blows far past the lognormal jitter range.
  std::vector<TraceFrame> frames;
  for (int i = 0; i < 20000; ++i) {
    frames.push_back(TraceFrame{static_cast<std::uint64_t>(i),
                                seconds(0.001 * i), 1.0});
  }
  std::vector<RateTruth> truth{RateTruth{seconds(0.0), hertz(1000.0),
                                         hertz(2000.0)}};
  const FrameTrace base{MediaType::Mp3Audio, std::move(frames),
                        std::move(truth), seconds(20.0)};
  Rng rng{15};
  const FrameTrace out =
      apply_fault(base, HeavyTailWork{seconds(0.0), seconds(1e9), 1.5}, rng);
  double sum = 0.0;
  double max = 0.0;
  for (const TraceFrame& f : out.frames()) {
    sum += f.work;
    max = std::max(max, f.work);
  }
  EXPECT_NEAR(sum / static_cast<double>(out.size()), 1.0, 0.15);
  EXPECT_GT(max, 5.0);
}

TEST(TraceTransforms, BurstArrivalsCoalescesWithoutChangingFrameCount) {
  const FrameTrace base = synthetic_trace();
  Rng rng{16};
  const FrameTrace out = apply_fault(
      base, BurstArrivals{seconds(0.0), seconds(1e9), 1.0, 4}, rng);
  EXPECT_EQ(out.size(), base.size());
  expect_well_formed(out);
  // With certain coalescing and max_burst 4, arrivals land in groups of 4
  // coincident frames.
  std::size_t coincident = 0;
  for (std::size_t i = 1; i < out.frames().size(); ++i) {
    if (out.frames()[i].arrival == out.frames()[i - 1].arrival) ++coincident;
  }
  EXPECT_EQ(coincident, 75u);  // 25 bursts of 4 -> 3 coincident gaps each
}

TEST(TraceTransforms, SameSeedSameResultDifferentSeedDiverges) {
  const FrameTrace base = synthetic_trace();
  const std::vector<TraceFault> faults{
      RateSpike{seconds(2.0), seconds(3.0), 5.0}, CorruptWork{0.1, 4.0}};
  const FrameTrace a = apply_faults(base, faults, 99u);
  const FrameTrace b = apply_faults(base, faults, 99u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.frames()[i].arrival.value(),
                     b.frames()[i].arrival.value());
    EXPECT_DOUBLE_EQ(a.frames()[i].work, b.frames()[i].work);
  }
  const FrameTrace c = apply_faults(base, faults, 100u);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.frames()[i].arrival.value() != c.frames()[i].arrival.value() ||
              a.frames()[i].work != c.frames()[i].work;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace dvs::fault
