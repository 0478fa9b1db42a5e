// S3 coverage: (a) TraceRecorder fan-out order across multiple sinks — per
// event, sinks fire in attachment order, and each sink sees events in
// record order; (b) MetricsRegistry accumulation across replicate runs —
// one registry shared by N engine runs holds exactly the merge of N
// per-replicate registries (counts sum, exact moments match a single
// recompute over the union of samples).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/event.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace_recorder.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"

namespace dvs::obs {
namespace {

TEST(TraceRecorderFanout, SinksFireInAttachmentOrderPerEvent) {
  TraceRecorder rec;
  std::vector<std::pair<int, double>> log;  // (sink id, event ts)
  for (int sink = 0; sink < 3; ++sink) {
    rec.add_sink(std::make_unique<CallbackSink>(
        [&log, sink](const Event& e) { log.emplace_back(sink, e.ts); }));
  }
  rec.record(1.0, FrameArrival{1, "mp3", 1});
  rec.record(2.0, FrameArrival{2, "mp3", 2});

  ASSERT_EQ(log.size(), 6u);
  // Event 1 reaches sinks 0,1,2 before event 2 reaches any sink.
  const std::vector<std::pair<int, double>> want = {
      {0, 1.0}, {1, 1.0}, {2, 1.0}, {0, 2.0}, {1, 2.0}, {2, 2.0}};
  EXPECT_EQ(log, want);
}

TEST(TraceRecorderFanout, LaterSinksStillSeeTheEventAThrowerSkips) {
  // Fan-out is sequential: a sink that throws stops delivery for that
  // event at its position.  Earlier sinks have already consumed it — this
  // pins the ordering contract the abort-handling test relies on.
  TraceRecorder rec;
  int first_saw = 0, last_saw = 0;
  rec.add_sink(std::make_unique<CallbackSink>(
      [&first_saw](const Event&) { ++first_saw; }));
  rec.add_sink(std::make_unique<CallbackSink>([](const Event&) {
    throw std::runtime_error("sink died");
  }));
  rec.add_sink(std::make_unique<CallbackSink>(
      [&last_saw](const Event&) { ++last_saw; }));

  EXPECT_THROW(rec.record(1.0, FrameArrival{1, "mp3", 1}), std::runtime_error);
  EXPECT_EQ(first_saw, 1);
  EXPECT_EQ(last_saw, 0);
  EXPECT_EQ(rec.events_recorded(), 1u);
}

// ---- registry aggregation across replicates ------------------------------

core::Metrics replicate_run(std::uint64_t seed, MetricsRegistry& registry) {
  const hw::Sa1100 cpu;
  const auto dec = workload::reference_mp3_decoder(cpu.max_frequency());
  Rng rng{seed};
  const auto trace =
      workload::build_mp3_trace(workload::mp3_sequence("A"), dec, rng);
  core::RunOptions opts;
  opts.detector = core::DetectorKind::ExpAverage;
  opts.seed = seed;
  opts.metrics = &registry;
  return core::run_single_trace(trace, dec, opts);
}

TEST(MetricsAggregation, SharedRegistryEqualsMergeOfReplicateRegistries) {
  const std::vector<std::uint64_t> seeds = {3, 4, 5};

  MetricsRegistry merged;
  std::vector<MetricsRegistry> singles(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    replicate_run(seeds[i], merged);
    replicate_run(seeds[i], singles[i]);
  }

  // Counters: the shared registry holds the replicate sum.
  for (const char* name :
       {"frames_arrived", "frames_decoded", "cpu_switches",
        "sim.events_executed", "flight.records"}) {
    std::uint64_t sum = 0;
    for (const auto& s : singles) sum += s.counters().at(name);
    EXPECT_EQ(merged.counters().at(name), sum) << name;
    EXPECT_GT(sum, 0u) << name;
  }

  // Histograms: merged count/moments equal a single recompute over the
  // union of the replicate sample streams.
  for (const char* name : {"frames.delay_s", "frames.decode_s"}) {
    const HistogramMetric* m = merged.find_histogram(name);
    ASSERT_NE(m, nullptr) << name;
    std::size_t count = 0;
    double sum = 0.0, mn = 1e300, mx = -1e300;
    for (const auto& s : singles) {
      const HistogramMetric* h = s.find_histogram(name);
      ASSERT_NE(h, nullptr) << name;
      count += h->count();
      sum += h->sum();
      mn = std::min(mn, h->min());
      mx = std::max(mx, h->max());
    }
    EXPECT_EQ(m->count(), count) << name;
    EXPECT_NEAR(m->mean(), sum / static_cast<double>(count),
                1e-12 * std::abs(m->mean()))
        << name;
    EXPECT_DOUBLE_EQ(m->min(), mn) << name;
    EXPECT_DOUBLE_EQ(m->max(), mx) << name;
    // Sketches merge too: quantiles of the merged histogram stay inside
    // the replicate min/max envelope.
    EXPECT_GE(m->sketch().quantile(0.5), mn);
    EXPECT_LE(m->sketch().quantile(0.5), mx);
  }

  // Gauges: last writer wins — the shared registry reports the final
  // replicate's value, not a sum.
  EXPECT_DOUBLE_EQ(merged.gauge_value("duration_s"),
                   singles.back().gauge_value("duration_s"));
}

}  // namespace
}  // namespace dvs::obs
