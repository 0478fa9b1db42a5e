// Telemetry pillar: snapshotter JSONL (schema, throttles), OpenMetrics
// exposition (naming, counter/_total rule, quantile summaries, # EOF),
// span profiler (tree, self/total accounting, collapsed emission), and the
// histogram range accounting + registry merge semantics behind them.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "obs/telemetry/span_profiler.hpp"

namespace dvs::obs {
namespace {

MetricsRegistry sample_registry() {
  MetricsRegistry reg;
  reg.counter("frames_decoded") = 41;
  reg.gauge("energy_j") = 12.5;
  HistogramMetric& h = reg.histogram("frames.delay_s", 0.0, 1.0);
  for (int i = 1; i <= 100; ++i) h.add(i * 0.005);  // 0.005 .. 0.5
  return reg;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---- snapshotter ----------------------------------------------------------

TEST(TelemetrySnapshotter, WritesSelfContainedJsonLines) {
  const MetricsRegistry reg = sample_registry();
  std::ostringstream out;
  TelemetrySnapshotter tel{&out};
  ASSERT_TRUE(tel.active());
  tel.snapshot(1.0, "engine", reg, {{"cpu_mhz", 103.2}});
  tel.snapshot(2.0, "engine", reg);
  EXPECT_EQ(tel.snapshots_written(), 2u);

  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  const json::ValuePtr snap = json::parse(lines[0]);
  EXPECT_DOUBLE_EQ(snap->at("t").as_number(), 1.0);
  EXPECT_EQ(snap->at("source").as_string(), "engine");
  EXPECT_DOUBLE_EQ(snap->at("live").at("cpu_mhz").as_number(), 103.2);
  EXPECT_DOUBLE_EQ(snap->at("counters").at("frames_decoded").as_number(), 41.0);
  EXPECT_DOUBLE_EQ(snap->at("gauges").at("energy_j").as_number(), 12.5);
  const json::Value& q = snap->at("quantiles").at("frames.delay_s");
  EXPECT_DOUBLE_EQ(q.at("count").as_number(), 100.0);
  EXPECT_NEAR(q.at("p50").as_number(), 0.2525, 1e-9);
  EXPECT_GT(q.at("p99").as_number(), q.at("p90").as_number());
}

TEST(TelemetrySnapshotter, WallThrottleDropsBackToBackSnapshots) {
  const MetricsRegistry reg = sample_registry();
  std::ostringstream out;
  TelemetrySnapshotter tel{&out};
  tel.set_min_wall_interval(3600.0);  // nothing else fits within the test
  tel.snapshot(1.0, "engine", reg);
  tel.snapshot(2.0, "engine", reg);
  tel.snapshot(3.0, "engine", reg);
  EXPECT_EQ(tel.snapshots_written(), 1u);
}

TEST(TelemetrySnapshotter, InactiveWithoutSink) {
  TelemetrySnapshotter tel;
  EXPECT_FALSE(tel.active());
  tel.snapshot(0.0, "engine", sample_registry());
  EXPECT_EQ(tel.snapshots_written(), 0u);
  EXPECT_FALSE(tel.open("/nonexistent-dir-zz/t.jsonl"));
  EXPECT_FALSE(tel.active());
}

// ---- OpenMetrics ----------------------------------------------------------

TEST(OpenMetrics, NameMapping) {
  EXPECT_EQ(openmetrics_name("frames.delay_s"), "dvs_frames_delay_s");
  EXPECT_EQ(openmetrics_name("cpu_switches"), "dvs_cpu_switches");
}

TEST(OpenMetrics, ExposesCountersGaugesAndQuantileSummaries) {
  const MetricsRegistry reg = sample_registry();
  std::ostringstream out;
  write_openmetrics(reg, out);
  const std::string text = out.str();
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");

  // Counter family: TYPE line, sample named <family>_total.
  EXPECT_NE(text.find("# TYPE dvs_frames_decoded counter"), std::string::npos);
  EXPECT_NE(text.find("dvs_frames_decoded_total 41"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dvs_energy_j gauge"), std::string::npos);
  // Summary: quantile samples plus _count/_sum.
  EXPECT_NE(text.find("# TYPE dvs_frames_delay_s summary"), std::string::npos);
  EXPECT_NE(text.find("dvs_frames_delay_s{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dvs_frames_delay_s{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dvs_frames_delay_s_count 100"), std::string::npos);
  EXPECT_NE(text.find("dvs_frames_delay_s_sum"), std::string::npos);
  // Companion clamp counter for every histogram.
  EXPECT_NE(text.find("dvs_frames_delay_s_clamped_total 0"), std::string::npos);

  // Every TYPE line precedes its samples (single pass, grouped families).
  bool seen_eof = false;
  for (const std::string& line : lines) {
    EXPECT_FALSE(seen_eof) << "content after # EOF: " << line;
    if (line == "# EOF") seen_eof = true;
  }
  EXPECT_TRUE(seen_eof);
}

// ---- span profiler --------------------------------------------------------

TEST(SpanProfiler, BuildsTreeWithSelfAndTotalTimes) {
  SpanProfiler prof;
  const int outer = prof.node(prof.root(), "outer");
  const int inner = prof.node(outer, "inner");
  EXPECT_EQ(prof.node(outer, "inner"), inner);  // get-or-create is idempotent

  prof.enter(prof.root());
  for (int i = 0; i < 100; ++i) {
    prof.enter(outer);
    prof.enter(inner);
    prof.exit();
    prof.exit();
  }
  prof.finalize();

  const auto& nodes = prof.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[static_cast<std::size_t>(outer)].calls, 100u);
  EXPECT_EQ(nodes[static_cast<std::size_t>(inner)].calls, 100u);
  // Inclusive time nests: root >= outer >= inner; self = total - children.
  EXPECT_GE(prof.node_total_s(prof.root()), prof.node_total_s(outer));
  EXPECT_GE(prof.node_total_s(outer), prof.node_total_s(inner));
  EXPECT_GE(prof.node_self_s(outer), 0.0);
  EXPECT_NEAR(prof.node_self_s(outer) + prof.node_total_s(inner),
              prof.node_total_s(outer), prof.node_total_s(outer) * 1e-6);
  EXPECT_GT(prof.seconds_per_tick(), 0.0);
  EXPECT_EQ(prof.stack_of(inner), "engine;outer;inner");
}

TEST(SpanProfiler, CollapsedOutputIsFlamegraphParsable) {
  SpanProfiler prof;
  const int outer = prof.node(prof.root(), "outer");
  prof.enter(prof.root());
  prof.enter(outer);
  prof.exit();
  prof.finalize();

  std::ostringstream os;
  prof.write_collapsed(os);
  const std::vector<std::string> lines = lines_of(os.str());
  ASSERT_GE(lines.size(), 2u);
  bool saw_stack = false;
  bool saw_calls = false;
  for (const std::string& line : lines) {
    if (line.rfind("# calls engine;outer ", 0) == 0) saw_calls = true;
    if (line.rfind("engine;outer ", 0) == 0) {
      saw_stack = true;
      // value is a non-negative integer microsecond count
      const std::string value = line.substr(line.rfind(' ') + 1);
      EXPECT_NE(value, "");
      EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_stack);
  EXPECT_TRUE(saw_calls);
}

TEST(SpanProfiler, NullProfilerScopedSpanIsANoOp) {
  ScopedSpan span{nullptr, 3};  // must not crash or record anywhere
  SUCCEED();
}

TEST(SpanProfiler, FinalizeClosesOpenSpans) {
  SpanProfiler prof;
  const int outer = prof.node(prof.root(), "outer");
  prof.enter(prof.root());
  prof.enter(outer);  // left open on purpose
  prof.finalize();
  EXPECT_EQ(prof.nodes()[static_cast<std::size_t>(outer)].calls, 1u);
  EXPECT_GE(prof.node_total_s(outer), 0.0);
}

// ---- histogram range accounting and registry merge ------------------------

TEST(HistogramClamp, UnderOverflowExposedInJsonAndWarningList) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("narrow", 0.0, 1.0);
  for (int i = 0; i < 89; ++i) h.add(0.5);
  h.add(0.0);                               // lo is inside [lo, hi)
  for (int i = 0; i < 5; ++i) h.add(7.0);   // overflow
  h.add(1.0);                               // hi is overflow
  for (int i = 0; i < 4; ++i) h.add(-2.0);  // underflow
  EXPECT_EQ(h.underflow(), 4u);
  EXPECT_EQ(h.overflow(), 6u);
  EXPECT_EQ(h.out_of_range(), 10u);
  // The sum, mean and extrema see the true values.
  EXPECT_DOUBLE_EQ(h.sum(), 89 * 0.5 + 5 * 7.0 + 1.0 - 4 * 2.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 100.0);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);

  std::ostringstream os;
  reg.write_json(os);
  const json::ValuePtr doc = json::parse(os.str());
  const json::Value& hj = doc->at("histograms").at("narrow");
  EXPECT_DOUBLE_EQ(hj.at("underflow").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(hj.at("overflow").as_number(), 6.0);
  // The sketch sees the true values: p99 beyond the registered range.
  EXPECT_GT(hj.at("p99").as_number(), 1.0);

  const auto flagged = reg.out_of_range_histograms(0.01);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].first, "narrow");
  EXPECT_NEAR(flagged[0].second, 0.10, 1e-12);
  EXPECT_TRUE(reg.out_of_range_histograms(0.25).empty());
}

TEST(RegistryMerge, CountersAddHistogramsFoldGaugesSkipped) {
  MetricsRegistry a;
  a.counter("events") = 10;
  a.gauge("last_power") = 5.0;
  HistogramMetric& ad = a.histogram("delay", 0.0, 1.0);
  ad.add(0.25);
  ad.add(-0.5);  // underflow
  ad.add(3.0);   // overflow

  MetricsRegistry b;
  b.counter("events") = 7;
  b.counter("only_b") = 3;
  b.gauge("last_power") = 9.0;
  HistogramMetric& bd = b.histogram("delay", 0.0, 1.0);
  bd.add(0.75);
  bd.add(-1.0);  // underflow
  bd.add(-2.0);  // underflow
  bd.add(1.0);   // overflow
  HistogramMetric& bo = b.histogram("only_b_hist", 0.0, 2.0);
  bo.add(1.5);
  bo.add(2.5);  // overflow

  a.merge_from(b);
  EXPECT_EQ(a.counters().at("events"), 17u);
  EXPECT_EQ(a.counters().at("only_b"), 3u);
  EXPECT_DOUBLE_EQ(a.gauge_value("last_power"), 5.0);  // gauges skipped
  const HistogramMetric* d = a.find_histogram("delay");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count(), 7u);
  EXPECT_EQ(d->underflow(), 3u);
  EXPECT_EQ(d->overflow(), 2u);
  EXPECT_DOUBLE_EQ(d->sum(), (0.25 - 0.5 + 3.0) + (0.75 - 1.0 - 2.0 + 1.0));
  EXPECT_DOUBLE_EQ(d->min(), -2.0);
  EXPECT_DOUBLE_EQ(d->max(), 3.0);
  EXPECT_DOUBLE_EQ(d->sketch().quantile(1.0), 3.0);
  const HistogramMetric* ob = a.find_histogram("only_b_hist");
  ASSERT_NE(ob, nullptr);
  EXPECT_EQ(ob->count(), 2u);
  EXPECT_DOUBLE_EQ(ob->lo(), 0.0);
  EXPECT_DOUBLE_EQ(ob->hi(), 2.0);
  EXPECT_EQ(ob->underflow(), 0u);
  EXPECT_EQ(ob->overflow(), 1u);
  EXPECT_DOUBLE_EQ(ob->sum(), 4.0);
}

TEST(HistogramAbsorb, SketchGivesCountAndExtremaSumAddsRangeCountsStay) {
  HistogramMetric h{0.0, 1.0};
  h.add(0.5);
  h.add(-1.0);  // underflow
  h.add(4.0);   // overflow

  // The serialized form of a job's delays: a sketch and its sum, holding
  // samples on both sides of the range.
  QuantileSketch s;
  for (double x : {0.25, -3.0, 9.0}) s.add(x);
  h.absorb_sketch(s, 6.25);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_DOUBLE_EQ(h.sum(), 3.5 + 6.25);
  EXPECT_DOUBLE_EQ(h.mean(), (3.5 + 6.25) / 6.0);
  EXPECT_EQ(h.underflow(), 1u);  // the sketch carries no range counts
  EXPECT_EQ(h.overflow(), 1u);

  h.absorb_sketch(QuantileSketch{}, 1.0);  // empty sketch: no-op, sum too
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.5 + 6.25);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_EQ(h.out_of_range(), 2u);

  HistogramMetric fresh{0.0, 1.0};  // absorbing into an empty metric
  fresh.absorb_sketch(s, 6.25);
  EXPECT_EQ(fresh.count(), 3u);
  EXPECT_DOUBLE_EQ(fresh.sum(), 6.25);
  EXPECT_DOUBLE_EQ(fresh.min(), -3.0);
  EXPECT_EQ(fresh.out_of_range(), 0u);
}

TEST(RegistryMerge, MismatchedHistogramShapesThrow) {
  MetricsRegistry a;
  a.histogram("h", 0.0, 1.0);
  MetricsRegistry b;
  b.histogram("h", 0.0, 2.0);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

}  // namespace
}  // namespace dvs::obs
