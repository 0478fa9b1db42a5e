// dvs-serve-status-v1 / dvs-job-summary-v1: the status snapshot and the
// per-job rollup must round-trip exactly, the snapshot must be replaced
// atomically (temp + rename — a reader never sees a half-written
// document), and the cross-job metrics fold must be byte-identical no
// matter in which order jobs completed (the daemon analogue of the
// jobs=1 vs jobs=N CSV determinism contract).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/telemetry/openmetrics.hpp"
#include "serve/status.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

obs::QuantileSketch sample_sketch(int n, double scale) {
  obs::QuantileSketch s;
  for (int i = 0; i < n; ++i) s.add(scale * (i + 1) / 7.0);
  return s;
}

ServeStatus sample_status() {
  ServeStatus s;
  s.pid = 4242;
  s.state = "running";
  s.started_unix = 1754650000.25;
  s.updated_unix = 1754650100.5;
  s.uptime_s = 100.25;
  s.last_seq = 17;
  s.jobs_done = 3;
  s.jobs_failed = 1;
  s.queue_depth = 2;
  s.table_cache.hits = 40;
  s.table_cache.misses = 4;
  s.table_cache.entries = 4;
  s.solve_cache.hits = 9;
  s.solve_cache.misses = 2;
  s.solve_cache.entries = 2;
  JobStatus running;
  running.id = "night-sweep";
  running.kind = "sweep";
  running.state = "running";
  running.units_done = 5;
  running.units_total = 12;
  running.elapsed_s = 30.0;
  running.eta_s = 42.0;
  s.jobs.push_back(running);
  JobStatus queued;
  queued.id = "later-fleet";
  queued.state = "queued";
  s.jobs.push_back(queued);
  return s;
}

TEST(ServeStatus, RoundTrip) {
  const std::string path = temp_path("status_rt.json");
  fs::remove(path);
  const ServeStatus ref = sample_status();
  write_status_atomic(ref, path);
  const ServeStatus got = load_status(path);
  EXPECT_EQ(got.pid, ref.pid);
  EXPECT_EQ(got.state, ref.state);
  EXPECT_EQ(got.started_unix, ref.started_unix);
  EXPECT_EQ(got.updated_unix, ref.updated_unix);
  EXPECT_EQ(got.uptime_s, ref.uptime_s);
  EXPECT_EQ(got.last_seq, ref.last_seq);
  EXPECT_EQ(got.jobs_done, ref.jobs_done);
  EXPECT_EQ(got.jobs_failed, ref.jobs_failed);
  EXPECT_EQ(got.queue_depth, ref.queue_depth);
  EXPECT_EQ(got.table_cache.hits, ref.table_cache.hits);
  EXPECT_EQ(got.table_cache.misses, ref.table_cache.misses);
  EXPECT_EQ(got.table_cache.entries, ref.table_cache.entries);
  EXPECT_EQ(got.solve_cache.hits, ref.solve_cache.hits);
  ASSERT_EQ(got.jobs.size(), 2u);
  EXPECT_EQ(got.jobs[0].id, "night-sweep");
  EXPECT_EQ(got.jobs[0].kind, "sweep");
  EXPECT_EQ(got.jobs[0].state, "running");
  EXPECT_EQ(got.jobs[0].units_done, 5u);
  EXPECT_EQ(got.jobs[0].units_total, 12u);
  EXPECT_EQ(got.jobs[0].elapsed_s, 30.0);
  EXPECT_EQ(got.jobs[0].eta_s, 42.0);
  EXPECT_EQ(got.jobs[1].id, "later-fleet");
  EXPECT_EQ(got.jobs[1].state, "queued");
  EXPECT_LT(got.jobs[1].eta_s, 0.0) << "unknown ETA loads as < 0";
  fs::remove(path);
}

TEST(ServeStatus, RunningRowTakesTheExecutorRecordUnchanged) {
  // The daemon's active row copies done, total and ETA from the
  // executor's progress record; it does no ETA arithmetic of its own.
  core::UnitProgress p;
  p.done = 9;
  p.total = 10;
  p.elapsed_s = 2.0;
  p.eta_s = 1.9375;
  ServeStatus s = sample_status();
  s.jobs[0].set_progress(p);
  const std::string path = temp_path("status_progress.json");
  write_status_atomic(s, path);
  const JobStatus got = load_status(path).jobs[0];
  EXPECT_EQ(got.units_done, 9u);
  EXPECT_EQ(got.units_total, 10u);
  EXPECT_EQ(got.eta_s, p.eta_s);
  EXPECT_EQ(got.elapsed_s, 30.0) << "elapsed stays the daemon's own";
  fs::remove(path);
}

TEST(ServeStatus, WriteIsAtomicReplace) {
  const std::string path = temp_path("status_atomic.json");
  fs::remove(path);
  ServeStatus s = sample_status();
  write_status_atomic(s, path);
  s.jobs_done = 99;
  s.jobs.clear();
  write_status_atomic(s, path);
  // The temp file must not linger, and the target holds the new snapshot
  // in full (rename replaced it — no append, no partial mix).
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const ServeStatus got = load_status(path);
  EXPECT_EQ(got.jobs_done, 99u);
  EXPECT_TRUE(got.jobs.empty());
  fs::remove(path);
}

TEST(ServeStatus, LoadRejectsMissingFileAndWrongSchema) {
  EXPECT_THROW((void)load_status(temp_path("status_never_written.json")),
               std::runtime_error);
  const std::string path = temp_path("status_wrong_schema.json");
  {
    std::ofstream os(path);
    os << R"({"schema": "dvs-job-v1"})" << "\n";
  }
  EXPECT_THROW((void)load_status(path), std::runtime_error);
  fs::remove(path);
}

TEST(JobSummary, RoundTripWithSketches) {
  const std::string path = temp_path("job_summary_rt.json");
  fs::remove(path);
  JobSummary ref;
  ref.job_id = "night-sweep";
  ref.kind = "sweep";
  ref.units_total = 12;
  ref.executed = 9;
  ref.restored = 3;
  ref.frames_decoded = 41520;
  ref.frames_dropped = 24;
  ref.energy_j = 1469.0520000000001;
  ref.elapsed_s = 72.5;
  ref.frame_delay_sketch = sample_sketch(40, 0.01);
  ref.frame_delay_sum_s = 155.36879999999999;
  write_job_summary(ref, path);
  const JobSummary got = load_job_summary(path);
  EXPECT_EQ(got.job_id, ref.job_id);
  EXPECT_EQ(got.kind, ref.kind);
  EXPECT_EQ(got.units_total, ref.units_total);
  EXPECT_EQ(got.executed, ref.executed);
  EXPECT_EQ(got.restored, ref.restored);
  EXPECT_EQ(got.frames_decoded, ref.frames_decoded);
  EXPECT_EQ(got.frames_dropped, ref.frames_dropped);
  EXPECT_EQ(got.energy_j, ref.energy_j);
  EXPECT_EQ(got.elapsed_s, ref.elapsed_s);
  EXPECT_EQ(got.frame_delay_sum_s, ref.frame_delay_sum_s);
  EXPECT_EQ(got.frame_delay_sketch.count(),
            ref.frame_delay_sketch.count());
  EXPECT_EQ(got.frame_delay_sketch.quantile(0.5),
            ref.frame_delay_sketch.quantile(0.5));
  EXPECT_EQ(got.frame_delay_sketch.quantile(0.99),
            ref.frame_delay_sketch.quantile(0.99));
  EXPECT_TRUE(got.device_delay_sketch.empty());
  fs::remove(path);
}

TEST(JobSummary, FractionalCountThrows) {
  // A count that is not a whole number in range is a corrupt summary: the
  // daemon then counts the job as unsummarized rather than folding a
  // truncated number.
  const std::string path = temp_path("job_summary_fractional.json");
  {
    std::ofstream os(path);
    os << R"({"schema": "dvs-job-summary-v1", "job": "j", "kind": "run",)"
       << R"( "units_total": 1, "executed": 2.5, "restored": 0})" << "\n";
  }
  EXPECT_THROW((void)load_job_summary(path), std::runtime_error);
  fs::remove(path);
}

TEST(ServeStatus, LoadRejectsBadIntegers) {
  const std::string path = temp_path("status_bad_integer.json");
  for (const char* bad : {R"("pid": -1)", R"("jobs_done": 1e300)",
                          R"("queue_depth": 0.5)"}) {
    {
      std::ofstream os(path);
      os << R"({"schema": "dvs-serve-status-v1", )" << bad << "}\n";
    }
    EXPECT_THROW((void)load_status(path), std::runtime_error) << bad;
  }
  fs::remove(path);
}

// ---- cross-job metrics fold -------------------------------------------------

/// Lays out a serve root with `summaries` completed jobs, written in the
/// given order (directory creation order is what a naive fold would pick
/// up; the pinned fold must not).
void write_done_tree(const std::string& root,
                     const std::vector<JobSummary>& summaries) {
  fs::remove_all(root);
  fs::create_directories(root + "/done");
  for (const JobSummary& s : summaries) {
    const std::string out_dir = root + "/done/" + s.job_id + ".out";
    fs::create_directories(out_dir);
    std::ofstream(root + "/done/" + s.job_id + ".json") << "{}";
    write_job_summary(s, out_dir + "/job_summary.json");
  }
}

JobSummary make_summary(const std::string& id, int seed) {
  JobSummary s;
  s.job_id = id;
  s.kind = "sweep";
  s.units_total = 4;
  s.executed = 4;
  s.frames_decoded = 1000u * static_cast<unsigned>(seed);
  s.frames_dropped = static_cast<unsigned>(seed);
  s.energy_j = 100.0 * seed + 0.123456789;
  s.elapsed_s = 1.5 * seed;  // wall time: must never reach metrics.om
  s.frame_delay_sketch = sample_sketch(30 + seed, 0.01 * seed);
  s.frame_delay_sum_s = 3.25 * seed;
  return s;
}

std::string scrape(const std::string& root) {
  std::ostringstream os;
  obs::write_openmetrics(collect_daemon_metrics(root), os);
  return os.str();
}

TEST(DaemonMetrics, FoldIsByteIdenticalAcrossCompletionOrder) {
  const std::string root_a = temp_path("metrics_fold_a");
  const std::string root_b = temp_path("metrics_fold_b");
  const JobSummary j1 = make_summary("alpha", 1);
  const JobSummary j2 = make_summary("bravo", 2);
  const JobSummary j3 = make_summary("charlie", 3);
  write_done_tree(root_a, {j1, j2, j3});
  write_done_tree(root_b, {j3, j1, j2});  // different completion order
  const std::string a = scrape(root_a);
  const std::string b = scrape(root_b);
  EXPECT_EQ(a, b) << "metrics.om must not depend on completion order";
  // The merged quantile summary really carries all three jobs' samples.
  EXPECT_NE(a.find("dvs_serve_frame_delay_s_count 96"), std::string::npos)
      << a;
  EXPECT_NE(a.find("dvs_serve_jobs_done_total 3"), std::string::npos);
  fs::remove_all(root_a);
  fs::remove_all(root_b);
}

TEST(DaemonMetrics, EmptyRootStillExposesStableFamilySet) {
  const std::string root = temp_path("metrics_fold_empty");
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string text = scrape(root);
  // Every family exists from the first scrape, so dashboards never see a
  // series appear mid-flight.
  for (const char* family :
       {"dvs_serve_jobs_done", "dvs_serve_jobs_failed",
        "dvs_serve_jobs_unsummarized", "dvs_serve_frames_decoded", "dvs_serve_frames_dropped",
        "dvs_serve_units_executed", "dvs_serve_units_restored",
        "dvs_serve_energy_j", "dvs_serve_frame_delay_s",
        "dvs_serve_device_delay_s"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  fs::remove_all(root);
}

TEST(DaemonMetrics, SummaryLessJobStillCounts) {
  // A done/ entry whose output dir lacks job_summary.json (a pre-upgrade
  // daemon's leftovers) still counts as a completed job.
  const std::string root = temp_path("metrics_fold_bare");
  fs::remove_all(root);
  fs::create_directories(root + "/done/old-job.out");
  std::ofstream(root + "/done/old-job.json") << "{}";
  fs::create_directories(root + "/failed");
  std::ofstream(root + "/failed/bad-job.json") << "{}";
  const std::string text = scrape(root);
  EXPECT_NE(text.find("dvs_serve_jobs_done_total 1"), std::string::npos);
  EXPECT_NE(text.find("dvs_serve_jobs_failed_total 1"), std::string::npos);
  fs::remove_all(root);
}

}  // namespace
}  // namespace dvs::serve
