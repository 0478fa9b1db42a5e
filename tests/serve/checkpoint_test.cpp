// dvs-checkpoint-v1: exact round trips (the whole point of %.17g and the
// embedded dvs-sketch-v1 text) and crash tolerance (a torn trailing line
// must cost only the torn units, never the intact prefix).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "serve/checkpoint.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

core::Metrics sample_metrics() {
  core::Metrics m;
  m.duration = seconds(237.15700000000001);
  m.total_energy = Joules{122.42099999999999};
  m.component_energy[0] = Joules{31.7};
  m.component_energy[1] = Joules{0.1234567890123456789};
  m.average_power = MilliWatts{516.20299999999997};
  m.frames_arrived = 3462;
  m.frames_admitted = 3462;
  m.frames_decoded = 3460;
  m.frames_dropped = 2;
  m.mean_frame_delay = seconds(0.037419200000000001);
  m.max_frame_delay = seconds(0.151246);
  m.mean_buffered_frames = 1.75;
  m.cpu_switches = 10;
  m.mean_cpu_frequency = MegaHertz{147.19999999999999};
  m.dpm_idle_periods = 9;
  m.dpm_sleeps = 6;
  m.dpm_wakeups = 6;
  m.dpm_total_wakeup_delay = seconds(0.96);
  m.faults_injected = 3;
  m.watchdog_escalations = 1;
  m.watchdog_recoveries = 1;
  m.time_in_degraded = seconds(12.5);
  return m;
}

obs::QuantileSketch sample_sketch(int n, double scale) {
  obs::QuantileSketch s;
  for (int i = 0; i < n; ++i) s.add(scale * (i + 1) / 7.0);
  return s;
}

TEST(Checkpoint, SweepRecordsRoundTripExactly) {
  const std::string path = temp_path("ckpt_sweep_rt.jsonl");
  fs::remove(path);
  {
    CheckpointWriter w(path, "job-1", "sweep", 1);
    w.append_point(3, sample_metrics(), sample_sketch(40, 0.01));
    w.append_point(7, core::Metrics{}, obs::QuantileSketch{});  // empty sketch
  }
  const CheckpointData data = load_checkpoint(path);
  EXPECT_EQ(data.job_id, "job-1");
  EXPECT_EQ(data.kind, "sweep");
  ASSERT_EQ(data.points.size(), 2u);

  const core::Metrics ref = sample_metrics();
  const core::RestoredPoint& rp = data.points.at(3);
  // Bit-exact: every double survives the %.17g round trip unchanged.
  EXPECT_EQ(rp.metrics.duration.value(), ref.duration.value());
  EXPECT_EQ(rp.metrics.total_energy.value(), ref.total_energy.value());
  EXPECT_EQ(rp.metrics.component_energy[1].value(),
            ref.component_energy[1].value());
  EXPECT_EQ(rp.metrics.average_power.value(), ref.average_power.value());
  EXPECT_EQ(rp.metrics.frames_decoded, ref.frames_decoded);
  EXPECT_EQ(rp.metrics.frames_dropped, ref.frames_dropped);
  EXPECT_EQ(rp.metrics.mean_frame_delay.value(), ref.mean_frame_delay.value());
  EXPECT_EQ(rp.metrics.mean_buffered_frames, ref.mean_buffered_frames);
  EXPECT_EQ(rp.metrics.cpu_switches, ref.cpu_switches);
  EXPECT_EQ(rp.metrics.dpm_sleeps, ref.dpm_sleeps);
  EXPECT_EQ(rp.metrics.faults_injected, ref.faults_injected);
  EXPECT_EQ(rp.metrics.time_in_degraded.value(), ref.time_in_degraded.value());

  const obs::QuantileSketch sref = sample_sketch(40, 0.01);
  EXPECT_EQ(rp.delay_sketch.count(), sref.count());
  EXPECT_EQ(rp.delay_sketch.quantile(0.5), sref.quantile(0.5));
  EXPECT_EQ(rp.delay_sketch.quantile(0.99), sref.quantile(0.99));

  EXPECT_TRUE(data.points.at(7).delay_sketch.empty());
  fs::remove(path);
}

TEST(Checkpoint, FleetShardsRoundTripExactly) {
  const std::string path = temp_path("ckpt_fleet_rt.jsonl");
  fs::remove(path);
  fleet::FleetShardPartial part;
  part.frames_total = 98765;
  fleet::FleetGroupResult g;
  g.devices = 32;
  g.wave_devices = 3;
  g.energy_j = 616.42700000000002;
  g.frames_decoded = 8292;
  g.frames_dropped = 17;
  g.faults_injected = 4;
  g.sum_mean_delay_s = 2.2052352000000001;
  g.delay_sketch = sample_sketch(32, 0.07);
  g.energy_sketch = sample_sketch(32, 20.0);
  part.groups.push_back(g);           // one populated slice
  part.groups.emplace_back();         // one empty slice (other policy)
  {
    CheckpointWriter w(path, "fleet-job", "fleet", 1);
    w.append_shard(5, part);
  }
  const CheckpointData data = load_checkpoint(path);
  EXPECT_EQ(data.kind, "fleet");
  ASSERT_EQ(data.shards.size(), 1u);
  const fleet::FleetShardPartial& r = data.shards.at(5);
  EXPECT_EQ(r.frames_total, 98765u);
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.groups[0].devices, 32u);
  EXPECT_EQ(r.groups[0].wave_devices, 3u);
  EXPECT_EQ(r.groups[0].energy_j, g.energy_j);
  EXPECT_EQ(r.groups[0].frames_decoded, 8292u);
  EXPECT_EQ(r.groups[0].frames_dropped, 17u);
  EXPECT_EQ(r.groups[0].faults_injected, 4u);
  EXPECT_EQ(r.groups[0].sum_mean_delay_s, g.sum_mean_delay_s);
  EXPECT_EQ(r.groups[0].delay_sketch.quantile(0.9),
            g.delay_sketch.quantile(0.9));
  EXPECT_EQ(r.groups[0].energy_sketch.quantile(0.5),
            g.energy_sketch.quantile(0.5));
  EXPECT_TRUE(r.groups[1].delay_sketch.empty());
  EXPECT_EQ(r.groups[1].devices, 0u);
  fs::remove(path);
}

TEST(Checkpoint, TornTrailingLineKeepsIntactPrefix) {
  const std::string path = temp_path("ckpt_torn.jsonl");
  fs::remove(path);
  {
    CheckpointWriter w(path, "j", "sweep", 1);
    w.append_point(0, sample_metrics(), obs::QuantileSketch{});
    w.append_point(1, sample_metrics(), obs::QuantileSketch{});
  }
  {
    // Simulate a SIGKILL mid-write: a record cut off mid-object.
    std::ofstream os(path, std::ios::app);
    os << R"({"point": 2, "metrics": {"duration": 1.5, "tot)";
  }
  const CheckpointData data = load_checkpoint(path);
  EXPECT_EQ(data.points.size(), 2u);  // torn point 2 is simply re-executed
  EXPECT_TRUE(data.points.count(0));
  EXPECT_TRUE(data.points.count(1));
  {
    // The resumed writer drops the torn fragment before appending, so the
    // re-executed point's record loads instead of gluing onto it.
    CheckpointWriter w(path, "j", "sweep", 1);
    w.append_point(2, sample_metrics(), obs::QuantileSketch{});
  }
  EXPECT_EQ(load_checkpoint(path).points.size(), 3u);
  fs::remove(path);
}

TEST(Checkpoint, BadCounterEndsTheIntactPrefix) {
  // A counter that is negative, fractional or past its type cannot come
  // from the writer: the record reads as torn, like a cut-off line, and
  // its point is re-executed instead of folding a wrapped count.
  const std::string path = temp_path("ckpt_bad_counter.jsonl");
  fs::remove(path);
  {
    CheckpointWriter w(path, "j", "sweep", 1);
    w.append_point(0, sample_metrics(), obs::QuantileSketch{});
  }
  {
    std::ofstream os(path, std::ios::app);
    os << R"({"point": 1, "metrics": {"frames_decoded": -1}})" << "\n"
       << R"({"point": 2, "metrics": {"frames_decoded": 5}})" << "\n";
  }
  const CheckpointData data = load_checkpoint(path);
  EXPECT_EQ(data.points.size(), 1u);
  EXPECT_TRUE(data.points.count(0));
  fs::remove(path);

  {
    std::ofstream os(path);
    os << R"({"schema": "dvs-checkpoint-v1", "job": "j", "kind": "sweep"})"
       << "\n"
       << R"({"point": 0, "metrics": {"cpu_switches": 3e9}})" << "\n";
  }
  EXPECT_TRUE(load_checkpoint(path).empty()) << "past INT_MAX";
  fs::remove(path);
}

TEST(Checkpoint, MissingFileLoadsEmpty) {
  const CheckpointData data =
      load_checkpoint(temp_path("ckpt_never_written.jsonl"));
  EXPECT_TRUE(data.empty());
}

TEST(Checkpoint, AppendAfterReopenKeepsSingleHeader) {
  const std::string path = temp_path("ckpt_reopen.jsonl");
  fs::remove(path);
  {
    CheckpointWriter w(path, "j", "sweep", 1);
    w.append_point(0, sample_metrics(), obs::QuantileSketch{});
  }
  {
    // A resumed daemon reopens the same file and appends more records.
    CheckpointWriter w(path, "j", "sweep", 1);
    w.append_point(1, sample_metrics(), obs::QuantileSketch{});
  }
  const CheckpointData data = load_checkpoint(path);
  EXPECT_EQ(data.points.size(), 2u);
  std::ifstream in(path);
  std::string line;
  int headers = 0;
  while (std::getline(in, line)) {
    if (line.find("dvs-checkpoint-v1") != std::string::npos) ++headers;
  }
  EXPECT_EQ(headers, 1);
  fs::remove(path);
}

TEST(Checkpoint, WrongSchemaThrows) {
  const std::string path = temp_path("ckpt_wrong_schema.jsonl");
  {
    std::ofstream os(path);
    os << R"({"schema": "dvs-ledger-v1"})" << "\n";
  }
  EXPECT_THROW((void)load_checkpoint(path), std::runtime_error);
  fs::remove(path);
}

}  // namespace
}  // namespace dvs::serve
