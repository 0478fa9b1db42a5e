#include "obs/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace dvs::obs {
namespace {

TEST(MetricsRegistry, CountersGetOrCreateAndAccumulate) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter_value("frames"), 0u);

  std::uint64_t& c = reg.counter("frames");
  EXPECT_EQ(c, 0u);
  ++c;
  reg.counter("frames") += 2;
  EXPECT_EQ(reg.counter_value("frames"), 3u);
  EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistry, GaugesHoldLatestValue) {
  MetricsRegistry reg;
  EXPECT_DOUBLE_EQ(reg.gauge_value("power"), 0.0);
  reg.gauge("power") = 12.5;
  reg.gauge("power") = 7.25;
  EXPECT_DOUBLE_EQ(reg.gauge_value("power"), 7.25);
}

TEST(MetricsRegistry, HistogramGetOrCreateReturnsSameObject) {
  MetricsRegistry reg;
  HistogramMetric& h1 = reg.histogram("delay", 0.0, 1.0);
  h1.add(0.25);
  // Second call with the same name must not reset the metric.
  HistogramMetric& h2 = reg.histogram("delay", 0.0, 1.0);
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.count(), 1u);
  EXPECT_EQ(reg.find_histogram("delay"), &h1);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
}

TEST(HistogramMetric, FeedsBothHistogramAndExactStats) {
  HistogramMetric m{0.0, 10.0};
  for (int i = 1; i <= 9; ++i) m.add(static_cast<double>(i));
  EXPECT_EQ(m.count(), 9u);
  EXPECT_DOUBLE_EQ(m.sum(), 45.0);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_DOUBLE_EQ(m.sketch().quantile(0.5), 5.0);  // exact below capacity
  EXPECT_EQ(m.out_of_range(), 0u);
  EXPECT_THROW((void)HistogramMetric(0.0, 1.0).mean(), std::logic_error);
}

TEST(MetricsRegistry, WriteJsonEmitsAllSections) {
  MetricsRegistry reg;
  reg.counter("frames_decoded") = 42;
  reg.gauge("energy_j") = 1.5;
  reg.histogram("delay_s", 0.0, 1.0).add(0.5);

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"frames_decoded\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_j\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"delay_s\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Balanced braces (quick structural sanity; full parse happens in the
  // CLI smoke test via python's json module).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistry, WriteJsonEmptyRegistryIsStillAnObject) {
  MetricsRegistry reg;
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find('{'), 0u);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

}  // namespace
}  // namespace dvs::obs
