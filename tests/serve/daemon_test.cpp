// Daemon lifecycle over a real directory tree (in-process, mostly --drain
// semantics): valid jobs travel queue/ -> done/ with artifacts, malformed
// jobs land in failed/ with an error note, and foreign files are ignored.
// An idle daemon wakes on a drop rather than its poll interval, and one
// spool root admits one daemon at a time.
// Every drain also leaves the telemetry plane behind — events.jsonl,
// status.json, metrics.om, per-job summaries — which the tests here pin.
// metrics.om is folded from the rollups the daemon holds in memory, so it
// must equal a cold collect_daemon_metrics of the root after any history.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry/openmetrics.hpp"
#include "serve/daemon.hpp"
#include "serve/event_log.hpp"
#include "serve/status.hpp"

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

void write_file(const fs::path& p, const std::string& text) {
  fs::create_directories(p.parent_path());
  std::ofstream os(p);
  os << text;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// A fast run job: one mp3 clip under the max-rate detector.
std::string run_job_text(const char* sequence, const std::string& extra = "") {
  return std::string(R"({"schema": "dvs-job-v1", "kind": "run", )") + extra +
         R"("run": {"media": "mp3", "sequence": ")" + sequence +
         R"(", "detector": "max"}})";
}

TEST(ServeDaemon, DrainProcessesGoodAndBadJobs) {
  TempDir tmp("serve_daemon_drain");
  write_file(tmp.path() / "queue/good.json",
             R"({"schema": "dvs-job-v1", "kind": "run",
                 "run": {"media": "mp3", "sequence": "A",
                         "detector": "max"}})");
  write_file(tmp.path() / "queue/bad.json",
             R"({"schema": "dvs-job-v1", "kind": "sweep",
                 "sweep": {"scenario": "no-such"}})");
  write_file(tmp.path() / "queue/broken.json", "{not json");
  write_file(tmp.path() / "queue/notes.txt", "not a job");
  write_file(tmp.path() / "queue/.hidden.json", "{}");

  DaemonOptions opts;
  opts.root = tmp.path().string();
  opts.jobs = 1;
  opts.drain = true;
  EXPECT_EQ(run_daemon(opts), 0);

  EXPECT_TRUE(fs::exists(tmp.path() / "done/good.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "done/good.out/run.csv"));
  EXPECT_TRUE(fs::exists(tmp.path() / "failed/bad.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "failed/bad.error.txt"));
  EXPECT_TRUE(fs::exists(tmp.path() / "failed/broken.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "failed/broken.error.txt"));
  // Foreign/hidden files never leave the queue.
  EXPECT_TRUE(fs::exists(tmp.path() / "queue/notes.txt"));
  EXPECT_TRUE(fs::exists(tmp.path() / "queue/.hidden.json"));
  EXPECT_TRUE(fs::is_empty(tmp.path() / "running"));

  std::ifstream err(tmp.path() / "failed/bad.error.txt");
  std::string msg((std::istreambuf_iterator<char>(err)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(msg.find("unknown scenario"), std::string::npos) << msg;

  // -- telemetry plane left behind by the drain --------------------------
  const std::vector<ServeEvent> events =
      load_events((tmp.path() / "events.jsonl").string());
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, "daemon_start");
  EXPECT_EQ(events.back().type, "daemon_stop");
  auto count = [&events](const char* type) {
    std::size_t n = 0;
    for (const ServeEvent& ev : events) n += ev.type == type;
    return n;
  };
  // bad and broken fail spec parse before a claim event can carry their
  // ids, so they go straight to job_failed; every job still reaches a
  // terminal event.
  EXPECT_EQ(count("job_claimed"), 1u);  // good
  EXPECT_EQ(count("job_finished"), 1u);
  EXPECT_EQ(count("job_failed"), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1) << "gap at " << i;
  }

  const ServeStatus status =
      load_status((tmp.path() / "status.json").string());
  EXPECT_EQ(status.state, "stopped");
  EXPECT_EQ(status.jobs_done, 1u);
  EXPECT_EQ(status.jobs_failed, 2u);
  EXPECT_EQ(status.queue_depth, 0u);
  EXPECT_EQ(status.last_seq, events.back().seq);

  const JobSummary summary = load_job_summary(
      (tmp.path() / "done/good.out/job_summary.json").string());
  EXPECT_EQ(summary.job_id, "good");
  EXPECT_EQ(summary.kind, "run");
  EXPECT_EQ(summary.executed, 1u);
  EXPECT_GT(summary.frames_decoded, 0u);
  EXPECT_GT(summary.energy_j, 0.0);
  EXPECT_FALSE(summary.frame_delay_sketch.empty());

  std::ifstream om(tmp.path() / "metrics.om");
  std::string text((std::istreambuf_iterator<char>(om)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("dvs_serve_jobs_done_total 1"), std::string::npos);
  EXPECT_NE(text.find("dvs_serve_jobs_failed_total 2"), std::string::npos);
  EXPECT_NE(text.find("# EOF"), std::string::npos);
}

TEST(ServeDaemon, RecoversJobLeftInRunning) {
  TempDir tmp("serve_daemon_recover");
  // A killed daemon leaves the claimed job file in running/; a fresh
  // daemon must execute it before touching the queue.
  write_file(tmp.path() / "running/orphan.json",
             R"({"schema": "dvs-job-v1", "kind": "run",
                 "run": {"media": "mp3", "sequence": "A",
                         "detector": "max"}})");
  DaemonOptions opts;
  opts.root = tmp.path().string();
  opts.jobs = 1;
  opts.drain = true;
  EXPECT_EQ(run_daemon(opts), 0);
  EXPECT_TRUE(fs::exists(tmp.path() / "done/orphan.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "done/orphan.out/run.csv"));
}

TEST(ServeDaemon, TelemetrySurvivesRestart) {
  TempDir tmp("serve_daemon_restart");
  const std::string job =
      R"({"schema": "dvs-job-v1", "kind": "run",
          "run": {"media": "mp3", "sequence": "A", "detector": "max"}})";
  DaemonOptions opts;
  opts.root = tmp.path().string();
  opts.jobs = 1;
  opts.drain = true;

  write_file(tmp.path() / "queue/first.json", job);
  EXPECT_EQ(run_daemon(opts), 0);
  write_file(tmp.path() / "queue/second.json", job);
  EXPECT_EQ(run_daemon(opts), 0);

  // One event history spans both daemon lifetimes, seq strictly monotone.
  const std::vector<ServeEvent> events =
      load_events((tmp.path() / "events.jsonl").string());
  std::size_t starts = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) { EXPECT_EQ(events[i].seq, events[i - 1].seq + 1); }
    starts += events[i].type == "daemon_start";
  }
  EXPECT_EQ(starts, 2u);

  // metrics.om folds done/ — both lifetimes' jobs — while status.json
  // counters describe only the last daemon's run.
  std::ifstream om(tmp.path() / "metrics.om");
  std::string text((std::istreambuf_iterator<char>(om)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("dvs_serve_jobs_done_total 2"), std::string::npos);
  const ServeStatus status =
      load_status((tmp.path() / "status.json").string());
  EXPECT_EQ(status.state, "stopped");
  EXPECT_EQ(status.last_seq, events.back().seq);
}

TEST(ServeDaemon, MaxJobsStopsEarly) {
  TempDir tmp("serve_daemon_maxjobs");
  for (const char* name : {"a.json", "b.json", "c.json"}) {
    write_file(tmp.path() / "queue" / name,
               R"({"schema": "dvs-job-v1", "kind": "run",
                   "run": {"media": "mp3", "sequence": "A",
                           "detector": "max"}})");
  }
  DaemonOptions opts;
  opts.root = tmp.path().string();
  opts.jobs = 1;
  opts.drain = true;
  opts.max_jobs = 2;
  EXPECT_EQ(run_daemon(opts), 0);
  // Lexicographic claim order: a and b ran, c stayed queued.
  EXPECT_TRUE(fs::exists(tmp.path() / "done/a.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "done/b.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "queue/c.json"));
}

TEST(ServeDaemon, WakesOnDropWithoutWaitingForPoll) {
  TempDir tmp("serve_daemon_wake");
  DaemonOptions opts;
  opts.root = tmp.path().string();
  opts.jobs = 1;
  opts.poll_ms = 30000;  // a polling daemon would sleep through the test
  opts.max_jobs = 1;
  const auto t0 = std::chrono::steady_clock::now();
  std::future<int> daemon =
      std::async(std::launch::async, [&opts] { return run_daemon(opts); });

  // Drop only once the daemon is up and past its first (empty) scan, so
  // the job has to wake it.  No early return: the daemon only exits after
  // a job, so the drop below must happen even when a check fails.
  const std::string events = (tmp.path() / "events.jsonl").string();
  const auto started = [&events] {
    return fs::exists(events) && !load_events(events).empty();
  };
  while (!started() &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(started() && load_events(events).front().type == "daemon_start");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Enqueue the way users do: write a dotfile, rename it into queue/.
  const auto dropped = std::chrono::steady_clock::now();
  write_file(tmp.path() / "queue/.late.json.tmp",
             R"({"schema": "dvs-job-v1", "kind": "run",
                 "run": {"media": "mp3", "sequence": "A",
                         "detector": "max"}})");
  fs::rename(tmp.path() / "queue/.late.json.tmp",
             tmp.path() / "queue/late.json");

  EXPECT_EQ(daemon.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "the drop did not wake the idle daemon";
  EXPECT_EQ(daemon.get(), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - dropped,
            std::chrono::seconds(5));
  EXPECT_TRUE(fs::exists(tmp.path() / "done/late.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "done/late.out/run.csv"));
}

TEST(ServeDaemon, SecondDaemonOnOneRootExits2) {
  TempDir tmp("serve_daemon_lock");
  write_file(tmp.path() / "queue/job.json",
             R"({"schema": "dvs-job-v1", "kind": "run",
                 "run": {"media": "mp3", "sequence": "A",
                         "detector": "max"}})");
  DaemonOptions opts;
  opts.root = tmp.path().string();
  opts.jobs = 1;
  opts.drain = true;

  // Stand in for a live daemon by holding its lock.
  const int held = ::open((tmp.path() / "daemon.lock").c_str(),
                          O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(held, 0);
  ASSERT_EQ(::flock(held, LOCK_EX | LOCK_NB), 0);
  EXPECT_EQ(run_daemon(opts), 2);
  // The refused daemon claimed nothing and logged nothing.
  EXPECT_TRUE(fs::exists(tmp.path() / "queue/job.json"));
  EXPECT_FALSE(fs::exists(tmp.path() / "events.jsonl"));

  // Once the holder is gone the root is served again.
  ::close(held);
  EXPECT_EQ(run_daemon(opts), 0);
  EXPECT_TRUE(fs::exists(tmp.path() / "done/job.json"));
}

TEST(ServeDaemon, UnreadableSummaryDoesNotFreezeMetrics) {
  TempDir tmp("serve_daemon_bad_summary");
  DaemonOptions opts;
  opts.root = tmp.path().string();
  opts.jobs = 1;
  opts.drain = true;
  write_file(tmp.path() / "queue/a.json", run_job_text("A"));
  EXPECT_EQ(run_daemon(opts), 0);
  write_file(tmp.path() / "done/a.out/job_summary.json", "{not json");

  write_file(tmp.path() / "queue/b.json", run_job_text("B"));
  EXPECT_EQ(run_daemon(opts), 0);
  const JobSummary b = load_job_summary(
      (tmp.path() / "done/b.out/job_summary.json").string());
  const std::string text = read_file(tmp.path() / "metrics.om");
  // a still counts as done but folds no numbers; b's numbers are all there.
  EXPECT_NE(text.find("dvs_serve_jobs_done_total 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dvs_serve_jobs_unsummarized_total 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dvs_serve_frames_decoded_total " +
                      std::to_string(b.frames_decoded) + "\n"),
            std::string::npos)
      << text;
}

TEST(ServeDaemon, InMemoryFoldMatchesColdRefold) {
  // Three daemon lifetimes over seeded-shuffled job names (so completion
  // order is not stem order), a job recovered from running/, a failed job,
  // a job whose id differs from its stem, and a re-dropped stem.  After
  // each lifetime the daemon's metrics.om equals a cold refold of the root.
  TempDir tmp("serve_daemon_fold");
  const fs::path& root = tmp.path();
  std::vector<std::string> names = {"kilo", "alpha", "tango", "delta",
                                    "mike", "bravo", "zulu",  "echo"};
  std::mt19937 rng(18);
  std::shuffle(names.begin(), names.end(), rng);
  const std::vector<std::string> specs = {
      run_job_text("A"), run_job_text("B", R"("id": "not-the-stem", )"),
      run_job_text("C"),
      R"({"schema": "dvs-job-v1", "kind": "fleet", "seed": 3,
          "fleet": {"name": "fleet_smoke", "devices": 32,
                    "shard_size": 16}})"};
  const auto drop = [&](const std::string& dir, std::size_t k) {
    write_file(root / dir / (names[k] + ".json"), specs[k % specs.size()]);
  };
  DaemonOptions opts;
  opts.root = root.string();
  opts.jobs = 1;
  opts.drain = true;
  const auto lifetime = [&](const char* label) {
    EXPECT_EQ(run_daemon(opts), 0) << label;
    std::ostringstream cold;
    obs::write_openmetrics(collect_daemon_metrics(root.string()), cold);
    EXPECT_EQ(read_file(root / "metrics.om"), cold.str()) << label;
  };

  for (std::size_t k : {0, 1, 2}) drop("queue", k);
  write_file(root / "queue/broken.json", "{not json");
  lifetime("first");

  drop("running", 3);  // a killed daemon's claimed job
  for (std::size_t k : {4, 5}) drop("queue", k);
  lifetime("recovery");

  for (std::size_t k : {6, 7}) drop("queue", k);
  // Re-drop the first stem with a different job: it replaces its rollup.
  write_file(root / "queue" / (names[0] + ".json"), run_job_text("D"));
  lifetime("re-drop");

  const std::string text = read_file(root / "metrics.om");
  EXPECT_NE(text.find("dvs_serve_jobs_done_total 8\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dvs_serve_jobs_failed_total 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dvs_serve_jobs_unsummarized_total 0\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace dvs::serve
