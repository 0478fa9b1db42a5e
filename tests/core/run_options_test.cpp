// RunOptions <-> EngineConfig round-trip: every field a caller can set must
// reach the engine (this is the drift that once silently dropped
// buffer_capacity), plus a behavioral check that the previously-dropped
// field actually changes simulation results.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "fault/fault_spec.hpp"
#include "hw/cpu_catalog.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_recorder.hpp"
#include "workload/clips.hpp"

namespace dvs::core {
namespace {

TEST(RunOptionsRoundTrip, EveryFieldReachesTheEngineConfig) {
  RunOptions opts;
  opts.detector = DetectorKind::ExpAverage;
  opts.policy = "qdpm";
  opts.target_delay = seconds(0.123);
  opts.service_cv2 = 0.7;
  opts.dpm_policy = nullptr;
  opts.seed = 987;
  DetectorFactoryConfig cfg;
  cfg.ema_gain = 0.5;
  cfg.sliding_window = 77;
  opts.detector_cfg = &cfg;
  opts.buffer_capacity = 17;
  opts.power_sample_period = seconds(2.5);
  opts.watchdog.enabled = true;
  opts.watchdog.violation_threshold = 5;
  opts.watchdog.initial_backoff = seconds(3.5);
  opts.hw_faults.freq_fail_prob = 0.25;
  opts.hw_faults.wakeup_fail_prob = 0.1;
  opts.hw_faults.rail_stuck_at = seconds(12.0);
  const hw::Sa1100 crusoe = hw::crusoe_like();
  opts.cpu = &crusoe;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::AttributionLedger ledger;
  opts.trace = &trace;
  opts.metrics = &metrics;
  opts.ledger = &ledger;
  opts.flight_recorder = false;
  opts.flight_capacity = 128;
  opts.flight_dump_path = "/tmp/fr.txt";
  obs::TelemetrySnapshotter telemetry;
  obs::SpanProfiler profiler;
  opts.telemetry = &telemetry;
  opts.telemetry_every = seconds(0.25);
  opts.profiler = &profiler;

  const EngineConfig ec = to_engine_config(opts);
  EXPECT_EQ(ec.detector, DetectorKind::ExpAverage);
  EXPECT_EQ(ec.policy, "qdpm");
  EXPECT_DOUBLE_EQ(ec.target_delay.value(), 0.123);
  EXPECT_DOUBLE_EQ(ec.service_cv2, 0.7);
  EXPECT_EQ(ec.dpm_policy, nullptr);
  EXPECT_EQ(ec.seed, 987u);
  EXPECT_DOUBLE_EQ(ec.detectors.ema_gain, 0.5);
  EXPECT_EQ(ec.detectors.sliding_window, 77u);
  EXPECT_EQ(ec.buffer_capacity, 17u);
  EXPECT_DOUBLE_EQ(ec.power_sample_period.value(), 2.5);
  EXPECT_TRUE(ec.watchdog.enabled);
  EXPECT_EQ(ec.watchdog.violation_threshold, 5);
  EXPECT_DOUBLE_EQ(ec.watchdog.initial_backoff.value(), 3.5);
  EXPECT_DOUBLE_EQ(ec.hw_faults.freq_fail_prob, 0.25);
  EXPECT_DOUBLE_EQ(ec.hw_faults.wakeup_fail_prob, 0.1);
  EXPECT_DOUBLE_EQ(ec.hw_faults.rail_stuck_at.value(), 12.0);
  EXPECT_DOUBLE_EQ(ec.cpu.max_frequency().value(),
                   crusoe.max_frequency().value());
  EXPECT_EQ(ec.trace, &trace);
  EXPECT_EQ(ec.metrics, &metrics);
  EXPECT_EQ(ec.ledger, &ledger);
  EXPECT_FALSE(ec.flight_recorder);
  EXPECT_EQ(ec.flight_capacity, 128u);
  EXPECT_EQ(ec.flight_dump_path, "/tmp/fr.txt");
  EXPECT_EQ(ec.telemetry, &telemetry);
  EXPECT_DOUBLE_EQ(ec.telemetry_every.value(), 0.25);
  EXPECT_EQ(ec.profiler, &profiler);
}

TEST(RunOptionsRoundTrip, DefaultsMatchEngineDefaults) {
  const EngineConfig ec = to_engine_config(RunOptions{});
  const EngineConfig def;
  EXPECT_EQ(ec.detector, def.detector);
  EXPECT_EQ(ec.policy, def.policy);
  EXPECT_DOUBLE_EQ(ec.target_delay.value(), def.target_delay.value());
  EXPECT_DOUBLE_EQ(ec.service_cv2, def.service_cv2);
  EXPECT_EQ(ec.buffer_capacity, def.buffer_capacity);
  EXPECT_DOUBLE_EQ(ec.cpu.max_frequency().value(),
                   def.cpu.max_frequency().value());
}

TEST(RunAssembly, ResolvesEveryKnobIntoRunOptions) {
  // The single construction path shared by cmd_run, the sweep pool, the
  // fleet shards, and serve jobs: every RunAssembly knob must land in the
  // assembled options, and shared assets must be wired by pointer.
  const CpuAsset cpu = build_cpu_asset("crusoe");
  const dpm::IdleDistributionPtr idle = default_idle_distribution();
  DetectorFactoryConfig detector_cfg;
  detector_cfg.ema_gain = 0.42;

  RunAssembly a;
  a.detector = DetectorKind::ExpAverage;
  a.policy = "qdpm";
  a.delay_target = seconds(0.321);
  a.service_cv2 = 1.9;
  a.dpm.kind = DpmKind::Tismdp;
  a.dpm.max_delay = seconds(0.4);
  a.engine_seed = 1234;
  const fault::FaultSpec spiky = fault::find_fault("spike10x") != nullptr
                                     ? *fault::find_fault("spike10x")
                                     : fault::FaultSpec{};
  a.faults = &spiky;

  const RunOptions opts = assemble_run_options(a, cpu, idle, detector_cfg);
  EXPECT_EQ(opts.detector, DetectorKind::ExpAverage);
  EXPECT_EQ(opts.policy, "qdpm");
  EXPECT_DOUBLE_EQ(opts.target_delay.value(), 0.321);
  EXPECT_DOUBLE_EQ(opts.service_cv2, 1.9);
  EXPECT_NE(opts.dpm_policy, nullptr);  // Tismdp resolved to a live policy
  EXPECT_EQ(opts.seed, 1234u);
  EXPECT_EQ(opts.detector_cfg, &detector_cfg);  // shared asset, by pointer
  EXPECT_EQ(opts.cpu, &cpu.cpu);
  EXPECT_EQ(opts.watchdog.enabled, spiky.watchdog.enabled);
  EXPECT_DOUBLE_EQ(opts.hw_faults.freq_fail_prob, spiky.hw.freq_fail_prob);

  // And the resulting options must round-trip into the engine config —
  // composing the drift protection above with the assembly layer.
  const EngineConfig ec = to_engine_config(opts);
  EXPECT_EQ(ec.policy, "qdpm");
  EXPECT_DOUBLE_EQ(ec.detectors.ema_gain, 0.42);
  EXPECT_DOUBLE_EQ(ec.cpu.max_frequency().value(),
                   cpu.cpu.max_frequency().value());
}

TEST(RunAssembly, NullFaultsLeavesWatchdogDisarmed) {
  const CpuAsset cpu = build_cpu_asset("sa1100");
  const dpm::IdleDistributionPtr idle = default_idle_distribution();
  const DetectorFactoryConfig detector_cfg;
  const RunOptions opts =
      assemble_run_options(RunAssembly{}, cpu, idle, detector_cfg);
  EXPECT_FALSE(opts.watchdog.enabled);
  EXPECT_EQ(opts.dpm_policy, nullptr);  // DpmKind::None
}

// A short MP3 run under the Max detector (no detection noise) so the
// behavioral check is cheap and deterministic.
Metrics short_run(const RunOptions& opts) {
  const hw::Sa1100 cpu;
  const workload::DecoderModel dec =
      workload::reference_mp3_decoder(cpu.max_frequency());
  Rng rng{2026};
  const workload::FrameTrace trace =
      workload::build_mp3_trace(workload::mp3_sequence("A"), dec, rng);
  return run_single_trace(trace, dec, opts);
}

TEST(RunOptionsBehavior, BoundedBufferDropsFramesUnboundedDoesNot) {
  RunOptions opts;
  opts.detector = DetectorKind::Max;
  const Metrics unbounded = short_run(opts);
  EXPECT_EQ(unbounded.frames_dropped, 0u);

  opts.buffer_capacity = 1;  // pathologically tight: arrivals must drop
  const Metrics bounded = short_run(opts);
  EXPECT_GT(bounded.frames_dropped, 0u);
  EXPECT_LT(bounded.frames_decoded, unbounded.frames_decoded);
}

}  // namespace
}  // namespace dvs::core
