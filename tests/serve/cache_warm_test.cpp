// The daemon's warm-pool property: process-wide caches (change-point
// threshold tables, TISMDP solves) persist across run_job calls, so the
// second of two identical back-to-back jobs recomputes nothing — zero new
// misses, zero new entries, strictly more hits.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "detect/table_cache.hpp"
#include "dpm/solve_cache.hpp"
#include "serve/job_runner.hpp"
#include "serve/job_spec.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

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

TEST(ServeCacheWarmth, BackToBackRunJobRecomputesNothing) {
  TempDir tmp("serve_cache_run");
  // Change-point detector + TISMDP DPM: the job touches both caches.
  const JobSpec job = JobSpec::parse(
      *json::parse(R"({"schema": "dvs-job-v1", "kind": "run",
          "run": {"media": "mp3", "sequence": "A",
                  "detector": "change-point", "dpm": "tismdp"}})"),
      "warm-run");

  JobPaths first;
  first.output_dir = (tmp.path() / "first").string();
  (void)run_job(job, first, 1);

  const detect::TableCacheStats t1 = detect::threshold_table_cache_stats();
  const dpm::SolveCacheStats s1 = dpm::tismdp_solve_cache_stats();
  // The first job must have populated both caches (otherwise this test
  // would vacuously pass on a job that never consults them).
  EXPECT_GT(t1.entries, 0u);
  EXPECT_GT(s1.entries, 0u);

  JobPaths second;
  second.output_dir = (tmp.path() / "second").string();
  (void)run_job(job, second, 1);

  const detect::TableCacheStats t2 = detect::threshold_table_cache_stats();
  const dpm::SolveCacheStats s2 = dpm::tismdp_solve_cache_stats();
  EXPECT_EQ(t2.misses, t1.misses) << "second job re-characterized a table";
  EXPECT_EQ(t2.entries, t1.entries);
  EXPECT_GT(t2.hits, t1.hits);
  EXPECT_EQ(s2.misses, s1.misses) << "second job re-solved a TISMDP policy";
  EXPECT_EQ(s2.entries, s1.entries);
  EXPECT_GT(s2.hits, s1.hits);
}

TEST(ServeCacheWarmth, BackToBackSweepJobRecomputesNoTables) {
  TempDir tmp("serve_cache_sweep");
  const JobSpec job = JobSpec::parse(
      *json::parse(R"({"schema": "dvs-job-v1", "kind": "sweep",
          "sweep": {"scenario": "quick"}})"),
      "warm-sweep");

  JobPaths first;
  first.output_dir = (tmp.path() / "first").string();
  (void)run_job(job, first, 2);
  const detect::TableCacheStats t1 = detect::threshold_table_cache_stats();
  EXPECT_GT(t1.entries, 0u);  // quick sweeps a change-point detector

  JobPaths second;
  second.output_dir = (tmp.path() / "second").string();
  (void)run_job(job, second, 2);
  const detect::TableCacheStats t2 = detect::threshold_table_cache_stats();
  EXPECT_EQ(t2.misses, t1.misses);
  EXPECT_EQ(t2.entries, t1.entries);
  EXPECT_GT(t2.hits, t1.hits);
}

}  // namespace
}  // namespace dvs::serve
