// The serve determinism contract: a job interrupted at a point/shard
// boundary and restored from its checkpoint emits CSVs byte-identical to
// an uninterrupted run, at any worker count.  The interruption is
// simulated exactly the way a SIGKILL manifests: a checkpoint file that
// ends after K complete records.
// The summary run_job returns is what the daemon folds into metrics.om,
// so it must fold to the same bytes as the job_summary.json it wrote.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "fleet/fleet_runner.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "serve/checkpoint.hpp"
#include "serve/job_runner.hpp"
#include "serve/job_spec.hpp"
#include "serve/status.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

std::string read_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << p;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Keeps the first `lines` lines of `path` — the on-disk state after a
/// kill once `lines - 1` records (+ header) had been flushed.
void truncate_to_lines(const fs::path& path, std::size_t lines) {
  std::ifstream in(path);
  std::vector<std::string> kept;
  std::string line;
  while (kept.size() < lines && std::getline(in, line)) kept.push_back(line);
  in.close();
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : kept) out << l << "\n";
}

/// job_summary.json minus the lines that legitimately differ between an
/// uninterrupted and a resumed run: the unit split and the wall time.
std::string restore_invariant_summary(const std::string& dir) {
  std::istringstream in(read_bytes(fs::path(dir) / "job_summary.json"));
  std::string kept;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  \"executed\":", 0) == 0 ||
        line.rfind("  \"restored\":", 0) == 0 ||
        line.rfind("  \"elapsed_s\":", 0) == 0) {
      continue;
    }
    kept += line + "\n";
  }
  return kept;
}

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(ServeResume, SweepRestoresByteIdenticalCsvAtAnyJobs) {
  TempDir tmp("serve_resume_sweep");
  const JobSpec job = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "sweep",
          "sweep": {"scenario": "quick"}})",
      "sweep-resume");

  // Uninterrupted reference.
  JobPaths ref;
  ref.output_dir = (tmp.path() / "ref").string();
  const JobSummary full = run_job(job, ref, /*default_jobs=*/2);
  EXPECT_EQ(full.restored, 0u);
  EXPECT_EQ(full.executed, 4u);  // quick: 2 detectors x 2 replicates
  const std::string ref_cells = read_bytes(ref.output_dir + "/sweep_cells.csv");
  const std::string ref_points =
      read_bytes(ref.output_dir + "/sweep_points.csv");

  // Build the complete checkpoint the way the daemon would (serial run,
  // every point recorded), then cut it to header + 2 records: the disk
  // state of a daemon killed at a point boundary.
  const fs::path master = tmp.path() / "master.ckpt.jsonl";
  {
    core::ScenarioSpec scenario = *core::find_scenario("quick");
    CheckpointWriter w(master.string(), job.id, "sweep", 1);
    core::SweepOptions sopts;
    sopts.jobs = 1;
    sopts.collect_quantiles = true;
    sopts.on_point_checkpoint = [&w](const core::RunPoint& p,
                                     const core::Metrics& m,
                                     const obs::QuantileSketch& sketch) {
      w.append_point(p.index, m, sketch);
    };
    (void)core::SweepRunner{sopts}.run(scenario);
  }

  for (int jobs : {1, 3}) {
    const fs::path ckpt =
        tmp.path() / ("resume_j" + std::to_string(jobs) + ".ckpt.jsonl");
    fs::copy_file(master, ckpt);
    truncate_to_lines(ckpt, 3);  // header + 2 point records

    JobPaths resumed;
    resumed.output_dir =
        (tmp.path() / ("out_j" + std::to_string(jobs))).string();
    resumed.checkpoint_path = ckpt.string();
    const JobSummary out = run_job(job, resumed, jobs);
    EXPECT_EQ(out.restored, 2u) << "jobs=" << jobs;
    EXPECT_EQ(out.executed, 2u) << "jobs=" << jobs;
    EXPECT_EQ(read_bytes(resumed.output_dir + "/sweep_cells.csv"), ref_cells)
        << "jobs=" << jobs;
    EXPECT_EQ(read_bytes(resumed.output_dir + "/sweep_points.csv"), ref_points)
        << "jobs=" << jobs;
    EXPECT_EQ(restore_invariant_summary(resumed.output_dir),
              restore_invariant_summary(ref.output_dir))
        << "jobs=" << jobs;
    EXPECT_FALSE(fs::exists(ckpt));  // consumed on success
  }
}

TEST(ServeResume, FleetRestoresByteIdenticalCsvAtAnyJobs) {
  TempDir tmp("serve_resume_fleet");
  const JobSpec job = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "fleet", "seed": 11,
          "fleet": {"name": "fleet_smoke", "devices": 192,
                    "shard_size": 32}})",
      "fleet-resume");

  JobPaths ref;
  ref.output_dir = (tmp.path() / "ref").string();
  const JobSummary full = run_job(job, ref, /*default_jobs=*/2);
  EXPECT_EQ(full.restored, 0u);
  EXPECT_EQ(full.executed, 6u);  // 192 devices / 32 per shard
  const std::string ref_csv = read_bytes(ref.output_dir + "/fleet.csv");

  const fs::path master = tmp.path() / "master.ckpt.jsonl";
  {
    dvs::fleet::FleetSpec fspec = *dvs::fleet::find_fleet("fleet_smoke");
    fspec.num_devices = 192;
    fspec.fleet_seed = 11;
    CheckpointWriter w(master.string(), job.id, "fleet", 1);
    dvs::fleet::FleetOptions fopts;
    fopts.jobs = 1;
    fopts.shard_size = 32;
    fopts.on_shard = [&w](std::size_t shard,
                          const dvs::fleet::FleetShardPartial& part) {
      w.append_shard(shard, part);
    };
    (void)dvs::fleet::FleetRunner{fopts}.run(fspec);
  }

  for (int jobs : {1, 3}) {
    const fs::path ckpt =
        tmp.path() / ("resume_j" + std::to_string(jobs) + ".ckpt.jsonl");
    fs::copy_file(master, ckpt);
    truncate_to_lines(ckpt, 4);  // header + 3 shard records

    JobPaths resumed;
    resumed.output_dir =
        (tmp.path() / ("out_j" + std::to_string(jobs))).string();
    resumed.checkpoint_path = ckpt.string();
    const JobSummary out = run_job(job, resumed, jobs);
    EXPECT_EQ(out.restored, 3u) << "jobs=" << jobs;
    EXPECT_EQ(out.executed, 3u) << "jobs=" << jobs;
    EXPECT_EQ(read_bytes(resumed.output_dir + "/fleet.csv"), ref_csv)
        << "jobs=" << jobs;
    EXPECT_EQ(restore_invariant_summary(resumed.output_dir),
              restore_invariant_summary(ref.output_dir))
        << "jobs=" << jobs;
  }
}

TEST(ServeResume, OutOfRangePointRecordsRestoreNothing) {
  // Point records a 4-point job cannot own: past the unit count, negative,
  // fractional, or beyond 2^53.  None may count as restored, the executed
  // count must not wrap, and the CSVs must match an uninterrupted run.
  TempDir tmp("serve_resume_out_of_range");
  const JobSpec job = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "sweep",
          "sweep": {"scenario": "quick"}})",
      "sweep-range");
  JobPaths ref;
  ref.output_dir = (tmp.path() / "ref").string();
  (void)run_job(job, ref, /*default_jobs=*/2);
  const std::string ref_cells = read_bytes(ref.output_dir + "/sweep_cells.csv");
  const std::string ref_points =
      read_bytes(ref.output_dir + "/sweep_points.csv");

  // A genuine point-0 record, re-indexed below.
  std::string record;
  {
    const fs::path master = tmp.path() / "master.ckpt.jsonl";
    CheckpointWriter w(master.string(), job.id, "sweep", 1);
    core::SweepOptions sopts;
    sopts.collect_quantiles = true;
    sopts.on_point_checkpoint = [&w](const core::RunPoint& p,
                                     const core::Metrics& m,
                                     const obs::QuantileSketch& sketch) {
      if (p.index == 0) w.append_point(p.index, m, sketch);
    };
    (void)core::SweepRunner{sopts}.run(*core::find_scenario("quick"));
    w.flush();
    std::istringstream lines(read_bytes(master));
    std::getline(lines, record);  // header
    std::getline(lines, record);
  }
  const std::string prefix = "{\"point\": 0,";
  ASSERT_EQ(record.rfind(prefix, 0), 0u) << record;
  const auto reindexed = [&](const std::string& index) {
    return "{\"point\": " + index + "," + record.substr(prefix.size()) + "\n";
  };
  const std::string header = "{\"schema\": \"dvs-checkpoint-v1\", \"job\": \"" +
                             job.id + "\", \"kind\": \"sweep\"}\n";
  const std::vector<std::string> cases = {
      reindexed("4") + reindexed("5") + reindexed("6") + reindexed("7") +
          reindexed("1000"),
      reindexed("-1"),
      reindexed("1.5"),
      reindexed("1e300"),
      reindexed("9007199254740992")};
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const fs::path ckpt = tmp.path() / ("case" + std::to_string(k) + ".jsonl");
    {
      std::ofstream out(ckpt);
      out << header << cases[k];
    }
    JobPaths resumed;
    resumed.output_dir = (tmp.path() / ("out" + std::to_string(k))).string();
    resumed.checkpoint_path = ckpt.string();
    const JobSummary out = run_job(job, resumed, 2);
    EXPECT_EQ(out.executed, 4u) << "case " << k;
    EXPECT_EQ(out.restored, 0u) << "case " << k;
    EXPECT_EQ(read_bytes(resumed.output_dir + "/sweep_cells.csv"), ref_cells)
        << "case " << k;
    EXPECT_EQ(read_bytes(resumed.output_dir + "/sweep_points.csv"), ref_points)
        << "case " << k;
  }
}

TEST(ServeResume, MismatchedCheckpointKindIsRejected) {
  TempDir tmp("serve_resume_mismatch");
  const fs::path ckpt = tmp.path() / "wrong.ckpt.jsonl";
  {
    CheckpointWriter w(ckpt.string(), "other", "fleet", 1);
    w.append_shard(0, dvs::fleet::FleetShardPartial{});
  }
  const JobSpec job = JobSpec::parse_text(
      R"({"schema": "dvs-job-v1", "kind": "sweep",
          "sweep": {"scenario": "quick"}})",
      "mismatch");
  JobPaths paths;
  paths.output_dir = (tmp.path() / "out").string();
  paths.checkpoint_path = ckpt.string();
  EXPECT_THROW((void)run_job(job, paths, 1), std::runtime_error);
}

/// metrics.om bytes with `summary` as the only completed job.
std::string fold_one(const JobSummary& summary) {
  std::ostringstream os;
  obs::write_openmetrics(fold_daemon_metrics({{"job", summary}}, 0), os);
  return os.str();
}

TEST(ServeResume, ReturnedSummaryFoldsLikeItsFile) {
  TempDir tmp("serve_summary_round_trip");
  const auto check = [](const JobSummary& returned, const std::string& dir) {
    EXPECT_EQ(fold_one(returned),
              fold_one(load_job_summary(dir + "/job_summary.json")))
        << dir;
  };
  const auto run = [&](const char* text, const char* name) {
    JobPaths paths;
    paths.output_dir = (tmp.path() / name).string();
    check(run_job(JobSpec::parse_text(text, name), paths, 2),
          paths.output_dir);
  };
  run(R"({"schema": "dvs-job-v1", "kind": "run",
          "run": {"media": "mp3", "sequence": "A", "detector": "max"}})",
      "run");
  run(R"({"schema": "dvs-job-v1", "kind": "fleet", "seed": 5,
          "fleet": {"name": "fleet_smoke", "devices": 64,
                    "shard_size": 16}})",
      "fleet");
  const char* sweep = R"({"schema": "dvs-job-v1", "kind": "sweep",
                          "sweep": {"scenario": "quick"}})";
  run(sweep, "sweep");

  // Resumed: the first attempt dies after two checkpointed points, the way
  // a crash would leave it, and the second restores them.
  const JobSpec job = JobSpec::parse_text(sweep, "resumed");
  JobPaths paths;
  paths.output_dir = (tmp.path() / "resumed").string();
  paths.checkpoint_path = (tmp.path() / "resumed.ckpt.jsonl").string();
  paths.on_progress = [](const core::UnitProgress& p) {
    if (p.done == 2) throw std::runtime_error("killed");
  };
  EXPECT_THROW((void)run_job(job, paths, 1), std::runtime_error);
  paths.on_progress = nullptr;
  const JobSummary resumed = run_job(job, paths, 1);
  EXPECT_EQ(resumed.restored, 2u);
  check(resumed, paths.output_dir);
}

}  // namespace
}  // namespace dvs::serve
