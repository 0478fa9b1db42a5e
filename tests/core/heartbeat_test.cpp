// Sweep heartbeat telemetry: one well-formed JSONL object per finished
// point, monotone done counts, and no effect on results.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/sweep.hpp"

namespace dvs::core {
namespace {

ScenarioSpec tiny_spec() {
  ScenarioSpec s;
  s.name = "tiny-hb";
  s.workloads = {WorkloadSpec::mp3("A")};
  s.detectors = {DetectorKind::ChangePoint, DetectorKind::Max};
  s.replicates = 2;
  s.base_seed = 7;
  s.detector_cfg.change_point.mc_windows = 400;
  return s;
}

TEST(SweepHeartbeat, OneValidLinePerPointWithMonotoneProgress) {
  const std::string path = ::testing::TempDir() + "sweep_heartbeat.jsonl";
  std::remove(path.c_str());
  const ScenarioSpec spec = tiny_spec();

  SweepOptions opts;
  opts.jobs = 2;
  opts.heartbeat_path = path;
  const SweepResult res = SweepRunner{opts}.run(spec);

  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::string line;
  std::vector<json::ValuePtr> beats;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    beats.push_back(json::parse(line));  // throws -> test failure
  }
  ASSERT_EQ(beats.size(), res.points.size());

  double prev_mean = 0.0;
  for (std::size_t i = 0; i < beats.size(); ++i) {
    const json::Value& b = *beats[i];
    EXPECT_EQ(b.at("scenario").as_string(), spec.name);
    EXPECT_DOUBLE_EQ(b.at("done").as_number(), static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(b.at("total").as_number(),
                     static_cast<double>(res.points.size()));
    EXPECT_GE(b.at("elapsed_s").as_number(), 0.0);
    EXPECT_GE(b.at("eta_s").as_number(), 0.0);
    EXPECT_GT(b.at("energy_kj").as_number(), 0.0);
    prev_mean = b.at("running_mean_energy_kj").as_number();
    EXPECT_GT(prev_mean, 0.0);
  }
  // The final running mean is the mean over all points.
  double sum = 0.0;
  for (const PointResult& p : res.points) sum += p.metrics.energy_kj();
  EXPECT_NEAR(prev_mean, sum / static_cast<double>(res.points.size()), 1e-9);

  // The heartbeat is telemetry only: a silent rerun produces identical
  // result bytes.
  SweepOptions quiet;
  quiet.jobs = 1;
  const SweepResult again = SweepRunner{quiet}.run(spec);
  ASSERT_EQ(again.points.size(), res.points.size());
  for (std::size_t i = 0; i < res.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.points[i].metrics.total_energy.value(),
                     res.points[i].metrics.total_energy.value());
  }
  std::remove(path.c_str());
}

TEST(SweepHeartbeat, EveryRecordIsFlushedToDiskAsItIsWritten) {
  // Pins the per-record flush in the heartbeat writer.  An external monitor
  // tailing the file must see each record as soon as the point finishes, not
  // whenever the stream buffer happens to fill.  on_point fires just before
  // the heartbeat record is written, under the same lock, so at jobs=1 the k-th callback must
  // find exactly k-1 complete, parseable lines already on disk.  If the
  // std::flush after each record is ever dropped, the early callbacks see an
  // empty file and this fails.
  const std::string path = ::testing::TempDir() + "sweep_heartbeat_flush.jsonl";
  std::remove(path.c_str());
  const ScenarioSpec spec = tiny_spec();

  SweepOptions opts;
  opts.jobs = 1;
  opts.heartbeat_path = path;
  std::size_t calls = 0;
  opts.on_point = [&](const PointResult&) {
    ++calls;
    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      ASSERT_FALSE(line.empty());
      ASSERT_EQ(line.back(), '}');  // complete record, not a torn write
      json::parse(line);            // throws -> test failure
      ++lines;
    }
    EXPECT_EQ(lines, calls - 1);
  };
  const SweepResult res = SweepRunner{opts}.run(spec);
  EXPECT_EQ(calls, res.points.size());
  std::remove(path.c_str());
}

TEST(SweepHeartbeat, StderrSpellingRuns) {
  ScenarioSpec spec = tiny_spec();
  spec.replicates = 1;
  SweepOptions opts;
  opts.heartbeat_path = "-";
  ::testing::internal::CaptureStderr();
  SweepRunner{opts}.run(spec);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("\"done\":1"), std::string::npos);
}

}  // namespace
}  // namespace dvs::core
