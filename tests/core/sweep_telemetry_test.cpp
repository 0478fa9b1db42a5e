// Sweep-level telemetry: quantile-sketch collection across workers
// (jobs=1 vs jobs=N byte-identity, the acceptance gate for the merged
// sketches), the executor's one progress record per executed unit (done
// counts, running means, the ETA after a restore, flushed snapshots), and
// the engine's sim-time snapshot cadence.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"

namespace dvs::core {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

ScenarioSpec tiny_spec() {
  ScenarioSpec s;
  s.name = "tiny";
  s.workloads = {WorkloadSpec::mp3("A")};
  s.detectors = {DetectorKind::ChangePoint, DetectorKind::Max};
  s.replicates = 2;
  s.base_seed = 7;
  s.detector_cfg.change_point.mc_windows = 400;
  return s;
}

/// The progress field `key` of a record; fails the test when absent.
double field(const UnitProgress& p, const std::string& key) {
  for (const auto& [k, v] : p.fields) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "no progress field " << key;
  return 0.0;
}

/// Writes `p` as one snapshot, the way the CLI's --telemetry-jsonl does.
void snapshot(obs::TelemetrySnapshotter& tel, const UnitProgress& p) {
  static const obs::MetricsRegistry kEmpty;
  tel.snapshot(p.elapsed_s, "sweep",
               p.registry != nullptr ? *p.registry : kEmpty, p.fields);
}

std::string cells_csv(const SweepResult& res, const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  {
    CsvWriter csv(path);
    res.write_cells_csv(csv);
  }
  return slurp(path);
}

TEST(SweepQuantiles, MergedWorkerSketchesAreBitIdenticalToSerial) {
  const ScenarioSpec spec = tiny_spec();
  SweepOptions serial;
  serial.jobs = 1;
  serial.collect_quantiles = true;
  const SweepResult a = SweepRunner{serial}.run(spec);
  SweepOptions wide;
  wide.jobs = 4;
  wide.collect_quantiles = true;
  const SweepResult b = SweepRunner{wide}.run(spec);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    // EXPECT_EQ on doubles: merged sketches fold in expansion order, so
    // the contract is bit-identical, not approximate.
    EXPECT_EQ(a.cells[c].delay_p50, b.cells[c].delay_p50) << c;
    EXPECT_EQ(a.cells[c].delay_p90, b.cells[c].delay_p90) << c;
    EXPECT_EQ(a.cells[c].delay_p99, b.cells[c].delay_p99) << c;
    EXPECT_GT(a.cells[c].delay_p50, 0.0) << c;
    EXPECT_LE(a.cells[c].delay_p50, a.cells[c].delay_p90) << c;
    EXPECT_LE(a.cells[c].delay_p90, a.cells[c].delay_p99) << c;
    EXPECT_EQ(a.cells[c].delay_sketch.count(), b.cells[c].delay_sketch.count())
        << c;
  }
  // The full CSV artifact — quantile columns included — must be
  // byte-identical across --jobs.
  EXPECT_EQ(cells_csv(a, "sweep_tel_serial.csv"),
            cells_csv(b, "sweep_tel_wide.csv"));
}

TEST(SweepQuantiles, OffByDefaultAndCsvColumnsReadZero) {
  const SweepResult res = SweepRunner{}.run(tiny_spec());
  for (const CellResult& c : res.cells) {
    EXPECT_TRUE(c.delay_sketch.empty());
    EXPECT_EQ(c.delay_p50, 0.0);
    EXPECT_EQ(c.delay_p99, 0.0);
  }
}

TEST(SweepQuantiles, SummaryRegistryFoldIsJobsInvariant) {
  const ScenarioSpec spec = tiny_spec();
  const auto run = [&spec](int jobs) {
    obs::MetricsRegistry reg;
    SweepOptions opts;
    opts.jobs = jobs;
    opts.metrics = &reg;
    SweepRunner{opts}.run(spec);
    std::ostringstream os;
    reg.write_json(os);
    return os.str();
  };
  std::string serial = run(1);
  std::string wide = run(4);
  // The only permitted differences are self-describing execution
  // metadata: the sweep.jobs and sweep.wall_seconds gauges.  Normalize
  // them, then demand byte-identity — histogram sketches, counters, and
  // every quantile included.
  const auto scrub = [](std::string& s, const std::string& key) {
    const auto pos = s.find(key);
    ASSERT_NE(pos, std::string::npos) << key;
    const auto end = s.find_first_of(",}", pos + key.size());
    ASSERT_NE(end, std::string::npos) << key;
    s.erase(pos, end - pos);
  };
  scrub(serial, "\"sweep.jobs\": ");
  scrub(wide, "\"sweep.jobs\": ");
  scrub(serial, "\"sweep.wall_seconds\": ");
  scrub(wide, "\"sweep.wall_seconds\": ");
  EXPECT_EQ(serial, wide);

  // And the fold really carries the population delay distribution.
  obs::MetricsRegistry reg;
  SweepOptions opts;
  opts.jobs = 2;
  opts.metrics = &reg;
  const SweepResult res = SweepRunner{opts}.run(spec);
  const obs::HistogramMetric* delay = reg.find_histogram("frames.delay_s");
  ASSERT_NE(delay, nullptr);
  std::uint64_t frames = 0;
  for (const PointResult& p : res.points) frames += p.metrics.frames_decoded;
  EXPECT_EQ(delay->count(), frames);
  EXPECT_GT(delay->sketch().quantile(0.99), 0.0);
}

TEST(SweepTelemetry, OneSnapshotPerFinishedPoint) {
  const ScenarioSpec spec = tiny_spec();
  std::ostringstream sink;
  obs::TelemetrySnapshotter tel{&sink};
  SweepOptions opts;
  opts.jobs = 2;
  opts.collect_quantiles = true;
  opts.on_progress = [&tel](const UnitProgress& p) { snapshot(tel, p); };
  SweepRunner{opts}.run(spec);

  EXPECT_EQ(tel.snapshots_written(), spec.num_points());
  std::istringstream lines{sink.str()};
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n;
    EXPECT_NE(line.find("\"source\": \"sweep\""), std::string::npos) << line;
    // Quantile collection is on, so each record carries the finished
    // point's own frame-delay sketch.
    EXPECT_NE(line.find("\"frames.delay_s\""), std::string::npos) << line;
  }
  EXPECT_EQ(n, spec.num_points());
}

TEST(SweepProgress, OneRecordPerExecutedPointWithMonotoneDone) {
  const ScenarioSpec spec = tiny_spec();
  SweepOptions opts;
  opts.jobs = 2;
  std::vector<UnitProgress> records;  // on_progress is serialized
  opts.on_progress = [&records](const UnitProgress& p) {
    records.push_back(p);
  };
  const SweepResult res = SweepRunner{opts}.run(spec);

  ASSERT_EQ(records.size(), res.points.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const UnitProgress& p = records[i];
    EXPECT_EQ(p.done, i + 1);
    EXPECT_EQ(p.total, res.points.size());
    EXPECT_GE(p.elapsed_s, 0.0);
    EXPECT_GE(p.eta_s, 0.0);
    EXPECT_EQ(p.registry, nullptr) << "no quantile collection, no registry";
    EXPECT_GT(field(p, "energy_kj"), 0.0);
    EXPECT_GT(field(p, "running_mean_energy_kj"), 0.0);
  }
  EXPECT_EQ(records.back().eta_s, 0.0);
  // The final running mean is the mean over all points.
  double sum = 0.0;
  for (const PointResult& p : res.points) sum += p.metrics.energy_kj();
  EXPECT_NEAR(field(records.back(), "running_mean_energy_kj"),
              sum / static_cast<double>(res.points.size()), 1e-9);

  // Progress is observation only: a silent rerun produces identical
  // result bytes.
  const SweepResult again = SweepRunner{}.run(spec);
  ASSERT_EQ(again.points.size(), res.points.size());
  for (std::size_t i = 0; i < res.points.size(); ++i) {
    EXPECT_EQ(again.points[i].metrics.total_energy.value(),
              res.points[i].metrics.total_energy.value());
  }
}

TEST(SweepProgress, EachSnapshotIsOnDiskBeforeTheNextPoint) {
  // The record of a point is handed out under the progress lock right
  // after its on_point, and the snapshotter flushes every line.  So at
  // jobs=1 the k-th on_point finds exactly k-1 complete, parseable lines
  // on disk: a tailing monitor sees each point as it lands.
  const std::string path = ::testing::TempDir() + "sweep_progress_flush.jsonl";
  std::remove(path.c_str());
  obs::TelemetrySnapshotter tel;
  ASSERT_TRUE(tel.open(path));
  SweepOptions opts;
  opts.jobs = 1;
  opts.on_progress = [&tel](const UnitProgress& p) { snapshot(tel, p); };
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
      (void)json::parse(line);      // throws -> test failure
      ++lines;
    }
    EXPECT_EQ(lines, calls - 1);
  };
  const SweepResult res = SweepRunner{opts}.run(tiny_spec());
  EXPECT_EQ(calls, res.points.size());
  std::remove(path.c_str());
}

TEST(UnitProgress, EtaCountsOnlyUnitsExecutedByThisRun) {
  // 8 of 10 units restored: they took no time in this run, so the first
  // executed unit's rate predicts the last one.  Counting the restored
  // units as finished in zero time would give elapsed/9.
  std::map<std::size_t, int> restored;
  for (std::size_t i = 0; i < 8; ++i) restored[i] = 0;
  UnitOptions<int> opts;
  opts.restored = &restored;
  std::vector<UnitProgress> records;
  opts.on_progress = [&records](const UnitProgress& p) {
    records.push_back(p);
  };
  UnitPlan<int> plan;
  plan.n = 10;
  plan.execute = [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return static_cast<int>(i);
  };
  const UnitRun<int> run = run_units(opts, plan);

  EXPECT_EQ(run.counts.restored, 8u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].done, 9u);
  EXPECT_EQ(records[0].total, 10u);
  EXPECT_GT(records[0].elapsed_s, 0.0);
  EXPECT_GE(records[0].eta_s, 0.5 * records[0].elapsed_s);
  EXPECT_EQ(records[1].done, 10u);
  EXPECT_EQ(records[1].eta_s, 0.0);
}

TEST(EngineTelemetry, SimTimeCadenceProducesPeriodicSnapshots) {
  const hw::Sa1100 cpu;
  const auto dec = workload::reference_mp3_decoder(cpu.max_frequency());
  Rng rng{5};
  const auto trace =
      workload::build_mp3_trace(workload::mp3_sequence("A"), dec, rng);

  std::ostringstream sink;
  obs::TelemetrySnapshotter tel{&sink};
  obs::MetricsRegistry reg;
  RunOptions opts;
  opts.seed = 5;
  opts.metrics = &reg;
  opts.telemetry = &tel;
  opts.telemetry_every = Seconds{2.0};
  const Metrics m = run_single_trace(trace, dec, opts);

  std::vector<double> ts;
  std::istringstream lines{sink.str()};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_NE(line.find("\"source\": \"engine\""), std::string::npos);
    // Mid-run feeds carry live instantaneous readings the registry only
    // gets at end of run.
    EXPECT_NE(line.find("\"cpu_mhz\""), std::string::npos) << line;
    const auto t_pos = line.find("\"t\": ");
    ASSERT_NE(t_pos, std::string::npos);
    ts.push_back(std::stod(line.substr(t_pos + 5)));
  }
  EXPECT_EQ(ts.size(), tel.snapshots_written());
  // The registry is sealed before the closing snapshot is written (the
  // closing line carries the registry, so it cannot self-include), hence
  // the counter reads one fewer than the JSONL line count.
  EXPECT_EQ(reg.counter_value("telemetry.snapshots"), ts.size() - 1);

  // The cadence chain ticks every 2 sim-seconds until the last scheduled
  // item ends; one final end-of-run snapshot then closes the series at
  // the metrics duration (which can run past the session end when the
  // decoder finishes late).  Tolerances allow for %.9g serialization.
  ASSERT_GE(ts.size(), 3u);
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    EXPECT_NEAR(ts[i], 2.0 * static_cast<double>(i + 1), 1e-5) << i;
  }
  EXPECT_NEAR(ts.back(), m.duration.value(), 1e-5);
  EXPECT_GE(ts.size(), static_cast<std::size_t>(m.duration.value() / 2.0));
}

}  // namespace
}  // namespace dvs::core
