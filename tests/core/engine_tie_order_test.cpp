// Exact tie order at the engine level.  Two hand-built mp3 traces put work
// the engine keeps off the kernel heap at the same instant as something
// that must run before it:
//
//  * arrivals on power-sample instants: a sample event is due at the time
//    an arrival sets up its WLAN-on and decode start, and each burst's
//    WLAN-off lands on the next sample.  Every third arrival brings two
//    frames, and a long gap puts the badge to sleep so the first frame
//    after it waits for the wakeup;
//  * a second frame arriving one reception burst before the first decode
//    completes, so that burst's WLAN-off is due at the completion's time
//    and ahead of the decode start the completion sets up.
//
// Each test hashes its structured trace (and the first, its power samples
// and totals too).  The pinned digests were taken from the engine that
// scheduled every one of those steps as a kernel event, so any change in
// the order of two same-time records shows up here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/experiment.hpp"
#include "dpm/policy.hpp"
#include "obs/event.hpp"
#include "obs/sinks.hpp"
#include "obs/trace_recorder.hpp"
#include "workload/trace.hpp"

namespace dvs::core {
namespace {

constexpr double kPeriod = 0.002;  // == the default WLAN reception burst

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The sampler's instants exactly as the engine computes them: the first
/// at one period, each next one period after the previous.
std::vector<double> sample_instants(std::size_t n) {
  std::vector<double> s{0.0, kPeriod};
  while (s.size() <= n) s.push_back(s.back() + kPeriod);
  return s;
}

workload::FrameTrace mp3_trace(std::vector<workload::TraceFrame> frames) {
  const double end = frames.back().arrival.value() + 1.0;
  std::vector<workload::RateTruth> truth{
      {seconds(0.0), hertz(50.0), hertz(120.0)}};
  return workload::FrameTrace(workload::MediaType::Mp3Audio, std::move(frames),
                              std::move(truth), seconds(end));
}

workload::FrameTrace tie_trace(const std::vector<double>& s) {
  std::vector<workload::TraceFrame> frames;
  std::uint64_t id = 0;
  // Phase 1: a frame on every tenth instant; every second one is offset
  // off-grid, and every third arrival brings a second frame with it.
  for (std::size_t i = 0; i < 40; ++i) {
    const double t = s[10 * (i + 1)] + (i % 2 == 1 ? 0.0007 : 0.0);
    frames.push_back({id++, seconds(t), 1.0});
    if (i % 3 == 0) frames.push_back({id++, seconds(t), 1.2});
  }
  // Phase 2, after a 3 s gap (the DPM sleeps): a burst one instant apart,
  // so decodes queue and completions start the next decode themselves.
  for (std::size_t i = 0; i < 30; ++i) {
    frames.push_back({id++, seconds(s[2000 + 2 * i]), 1.5});
  }
  return mp3_trace(std::move(frames));
}

TEST(EngineTieOrder, SameTimeWorkKeepsItsKernelPosition) {
  const std::vector<double> s = sample_instants(2100);
  const workload::FrameTrace trace = tie_trace(s);

  std::ostringstream jsonl;
  obs::TraceRecorder rec;
  rec.add_sink(std::make_unique<obs::JsonlSink>(jsonl));

  RunOptions opts;
  opts.detector = DetectorKind::Ideal;
  opts.target_delay = seconds(0.01);
  opts.power_sample_period = seconds(kPeriod);
  opts.dpm_policy = std::make_shared<dpm::FixedTimeoutPolicy>(seconds(0.2),
                                                              seconds(1.0));
  opts.trace = &rec;
  const hw::Sa1100 cpu;
  const Metrics m = run_single_trace(
      trace, workload::reference_mp3_decoder(cpu.max_frequency()), opts);
  rec.flush();

  // The run exercises what the digest is meant to pin.
  EXPECT_EQ(m.frames_decoded, trace.size());
  EXPECT_GT(m.dpm_sleeps, 0);
  EXPECT_GT(m.dpm_wakeups, 0);

  std::string text = jsonl.str();
  char buf[64];
  for (const auto& [t, mw] : m.power_trace) {
    std::snprintf(buf, sizeof buf, "%.17g %.17g\n", t, mw);
    text += buf;
  }
  for (const double v :
       {m.duration.value(), m.total_energy.value(), m.mean_frame_delay.value(),
        m.max_frame_delay.value(), m.mean_cpu_frequency.value()}) {
    std::snprintf(buf, sizeof buf, "%.17g\n", v);
    text += buf;
  }
  for (const Joules e : m.component_energy) {
    std::snprintf(buf, sizeof buf, "%.17g\n", e.value());
    text += buf;
  }
  EXPECT_EQ(fnv1a(text), 0x5b6271f9f802de81ULL) << std::hex << "digest 0x" << fnv1a(text);
}

/// Decode-completion times of a traced max-frequency run of `trace`, and
/// the run's JSONL trace.
std::vector<double> decode_done_times(const workload::FrameTrace& trace,
                                      std::string* jsonl_out) {
  std::vector<double> done;
  std::ostringstream jsonl;
  obs::TraceRecorder rec;
  rec.add_sink(std::make_unique<obs::JsonlSink>(jsonl));
  rec.add_sink(std::make_unique<obs::CallbackSink>([&](const obs::Event& e) {
    if (std::holds_alternative<obs::DecodeDone>(e.payload)) {
      done.push_back(e.ts);
    }
  }));
  RunOptions opts;
  opts.detector = DetectorKind::Max;
  opts.trace = &rec;
  const hw::Sa1100 cpu;
  (void)run_single_trace(
      trace, workload::reference_mp3_decoder(cpu.max_frequency()), opts);
  rec.flush();
  if (jsonl_out != nullptr) *jsonl_out = jsonl.str();
  return done;
}

TEST(EngineTieOrder, TransitionDueAtAFollowUpTimeGoesFirst) {
  // A frame arrives while the first one decodes, exactly one reception
  // burst before that decode completes: the burst's WLAN-off then falls
  // due at the completion's time with a later seq than the completion but
  // an earlier one than the decode start the completion sets up.
  const double rx = 0.002;  // the default WLAN reception burst
  const std::vector<double> first =
      decode_done_times(mp3_trace({{0, seconds(0.1), 1.0}}), nullptr);
  ASSERT_EQ(first.size(), 1u);
  const double done = first[0];
  double a = done - rx;
  while (a + rx < done) a = std::nextafter(a, done);
  while (a + rx > done) a = std::nextafter(a, 0.0);
  ASSERT_EQ(a + rx, done);

  std::string text;
  const std::vector<double> both = decode_done_times(
      mp3_trace({{0, seconds(0.1), 1.0}, {1, seconds(a), 1.0}}), &text);
  ASSERT_EQ(both.size(), 2u);
  ASSERT_EQ(both[0], done) << "the second arrival moved the first decode";
  EXPECT_EQ(fnv1a(text), 0x8846bc758f52751cULL) << std::hex << "digest 0x" << fnv1a(text);
}

}  // namespace
}  // namespace dvs::core
