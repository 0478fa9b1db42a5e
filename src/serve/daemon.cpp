#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/telemetry/openmetrics.hpp"
#include "serve/event_log.hpp"
#include "serve/job_runner.hpp"
#include "serve/job_spec.hpp"
#include "serve/status.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

/// Best-effort move that survives a pre-existing destination (a re-dropped
/// job name): the old entry is removed first.
void replace_rename(const fs::path& from, const fs::path& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::rename(from, to);
}

/// True when `dir` exists and contains at least one regular file — the
/// "did any flight dumps actually land" test.
bool has_files(const fs::path& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) return true;
  }
  return false;
}

/// Owns one file descriptor (negative = none) and closes it on every
/// return path; closing is also what releases a flock() held through it.
class UniqueFd {
 public:
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// Sleeps until `wake` (an inotify fd, or negative for none) reports a
/// queue/ event or `timeout_ms` passes, then discards the pending events:
/// the caller rescans queue/ on every wake, so which names moved (or an
/// IN_Q_OVERFLOW) does not matter.
void wait_for_drop(int wake, int timeout_ms) {
  pollfd pfd{wake, POLLIN, 0};  // poll() ignores a negative fd
  ::poll(&pfd, 1, timeout_ms);
  if (wake < 0) return;
  alignas(inotify_event) char buf[4096];
  while (::read(wake, buf, sizeof buf) > 0) {
  }
}

struct DaemonPaths {
  fs::path queue, running, done, failed, checkpoints;
};

/// The daemon's observable surface: the lifecycle event log, the atomic
/// status.json snapshot, and the cross-job metrics.om scrape file.  All
/// three are pure side channels — nothing here feeds back into job
/// results.  metrics.om folds done/ rollups loaded once here and then
/// replaced by stem (as on disk) from each summary run_job returns;
/// daemon.lock makes this daemon done/'s only writer, so the fold equals a
/// cold refold of the root.
class DaemonTelemetry {
 public:
  DaemonTelemetry(const std::string& root, const DaemonPaths& dp)
      : root_(root),
        dp_(dp),
        events_(root + "/events.jsonl"),
        started_unix_(now_unix()),
        t0_(std::chrono::steady_clock::now()),
        done_(load_done_jobs(root)) {
    const std::vector<std::string> failed = job_stems(dp.failed.string());
    failed_.insert(failed.begin(), failed.end());
  }

  void daemon_started() {
    events_.daemon_start(static_cast<int>(::getpid()));
    write_status("running");
    refresh_metrics();
  }

  void daemon_stopped(std::size_t processed) {
    events_.daemon_stop(processed);
    refresh_metrics();
    write_status("stopped");
  }

  /// Registers the active job (claimed or recovered) and snapshots.
  void job_started(const std::string& id, const std::string& kind,
                   bool recovered) {
    events_.job_claimed(id, recovered);
    active_ = JobStatus{};
    active_.id = id;
    active_.kind = kind;
    active_.state = "running";
    has_active_ = true;
    job_t0_ = std::chrono::steady_clock::now();
    write_status("running");
  }

  /// Per-unit progress: the executor's record sets the active row's
  /// done/total/ETA; elapsed_s stays the time since the claim.
  void job_progress(const core::UnitProgress& p) {
    if (!has_active_) return;
    active_.set_progress(p);
    active_.elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job_t0_)
            .count();
    write_status("running");
  }

  void job_finished(const std::string& stem, const JobSummary& summary) {
    events_.job_finished(summary.job_id, summary.kind, summary.executed,
                         summary.restored);
    done_[stem] = summary;
    ++jobs_done_;
    has_active_ = false;
    refresh_metrics();
    write_status("running");
  }

  void job_failed(const std::string& stem, const std::string& id,
                  const std::string& error, const std::string& flight_dir) {
    events_.job_failed(id, error, flight_dir);
    failed_.insert(stem);
    ++jobs_failed_;
    has_active_ = false;
    refresh_metrics();
    write_status("running");
  }

 private:
  void write_status(const std::string& state) {
    ServeStatus s;
    s.pid = static_cast<int>(::getpid());
    s.state = state;
    s.started_unix = started_unix_;
    s.updated_unix = now_unix();
    s.uptime_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0_)
                     .count();
    s.last_seq = events_.last_seq();
    s.jobs_done = jobs_done_;
    s.jobs_failed = jobs_failed_;
    s.table_cache = detect::threshold_table_cache_stats();
    s.solve_cache = dpm::tismdp_solve_cache_stats();
    const std::vector<std::string> queued = job_stems(dp_.queue.string());
    s.queue_depth = queued.size();
    if (has_active_) s.jobs.push_back(active_);
    for (const std::string& stem : queued) {
      JobStatus j;
      j.id = stem;
      j.state = "queued";
      s.jobs.push_back(std::move(j));
    }
    try {
      write_status_atomic(s, root_ + "/status.json");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: status write failed: %s\n", e.what());
    }
  }

  void refresh_metrics() {
    try {
      obs::write_openmetrics_atomic(
          fold_daemon_metrics(done_, failed_.size()), root_ + "/metrics.om");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: metrics write failed: %s\n", e.what());
    }
  }

  std::string root_;
  const DaemonPaths& dp_;
  EventLog events_;
  double started_unix_;
  std::chrono::steady_clock::time_point t0_;
  std::chrono::steady_clock::time_point job_t0_;
  std::size_t jobs_done_ = 0;  ///< this lifetime's jobs (status.json)
  std::size_t jobs_failed_ = 0;
  DoneJobs done_;
  std::set<std::string> failed_;
  JobStatus active_;
  bool has_active_ = false;
};

/// Executes the job file running/<stem>.json to its terminal directory.
void process_job(const DaemonPaths& dp, const std::string& stem,
                 const DaemonOptions& opts, DaemonTelemetry& tel,
                 bool recovered) {
  const fs::path job_file = dp.running / (stem + ".json");
  const fs::path out_dir = dp.running / (stem + ".out");
  const fs::path ckpt = dp.checkpoints / (stem + ".ckpt.jsonl");
  std::string job_id = stem;
  try {
    const JobSpec spec = JobSpec::parse_file(job_file.string());
    job_id = spec.id;
    tel.job_started(job_id, to_string(spec.kind), recovered);
    JobPaths paths;
    paths.output_dir = out_dir.string();
    // Run-kind jobs have no fold units to restore; sweep/fleet checkpoint.
    if (spec.kind != JobKind::Run) paths.checkpoint_path = ckpt.string();
    paths.on_progress = [&tel](const core::UnitProgress& p) {
      tel.job_progress(p);
    };
    std::printf("serve: job %s (%s) started\n", spec.id.c_str(),
                to_string(spec.kind).c_str());
    std::fflush(stdout);
    const JobSummary summary = run_job(spec, paths, opts.jobs);
    replace_rename(out_dir, dp.done / (stem + ".out"));
    replace_rename(job_file, dp.done / (stem + ".json"));
    tel.job_finished(stem, summary);
    std::printf("serve: job %s done (%zu units executed, %zu restored)\n",
                summary.job_id.c_str(), summary.executed, summary.restored);
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::error_code ec;
    fs::remove(ckpt, ec);  // a failed job must not poison a future re-drop
    // Move the half-built artifacts first so the error file can point at
    // the flight dumps where they will actually live.
    std::string flight_note;
    if (fs::exists(out_dir, ec)) {
      replace_rename(out_dir, dp.failed / (stem + ".out"));
      const fs::path flight = dp.failed / (stem + ".out") / "flight";
      if (has_files(flight)) flight_note = flight.string();
    }
    std::string error_text = e.what();
    if (!flight_note.empty()) {
      error_text += "\nflight dumps: " + flight_note;
    }
    std::ofstream(dp.failed / (stem + ".error.txt")) << error_text << "\n";
    replace_rename(job_file, dp.failed / (stem + ".json"));
    tel.job_failed(stem, job_id, e.what(), flight_note);
    std::printf("serve: job %s failed: %s\n", stem.c_str(), e.what());
    std::fflush(stdout);
  }
}

}  // namespace

int run_daemon(const DaemonOptions& opts) {
  DaemonPaths dp;
  const fs::path root = opts.root;
  dp.queue = root / "queue";
  dp.running = root / "running";
  dp.done = root / "done";
  dp.failed = root / "failed";
  dp.checkpoints = root / "checkpoints";
  try {
    for (const fs::path* d :
         {&dp.queue, &dp.running, &dp.done, &dp.failed, &dp.checkpoints}) {
      fs::create_directories(*d);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvs_sim serve: cannot prepare %s: %s\n",
                 opts.root.c_str(), e.what());
    return 2;
  }

  // One daemon per spool root: a second one would wake on the same drops
  // and race every claim.  The lock lives as long as this fd, so every
  // return below (and a SIGKILL) releases it.
  const fs::path lock_path = root / "daemon.lock";
  const UniqueFd lock(
      ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644));
  if (lock.get() < 0 || ::flock(lock.get(), LOCK_EX | LOCK_NB) != 0) {
    std::fprintf(stderr, "dvs_sim serve: cannot lock %s: %s\n",
                 lock_path.c_str(),
                 errno == EWOULDBLOCK ? "another daemon serves this root"
                                      : std::strerror(errno));
    return 2;
  }

  // Watch queue/ before the first scan, so a drop landing between a scan
  // and the wait still wakes the wait.  Without a watch (no inotify, or
  // the per-user instance limit reached) the same wait sleeps poll_ms.
  const UniqueFd watch(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC));
  if (watch.get() < 0 ||
      ::inotify_add_watch(watch.get(), dp.queue.c_str(),
                          IN_MOVED_TO | IN_CLOSE_WRITE) < 0) {
    std::fprintf(stderr,
                 "serve: no inotify watch on %s (%s); scanning every %d ms\n",
                 dp.queue.c_str(), std::strerror(errno), opts.poll_ms);
  }

  std::signal(SIGTERM, handle_stop);
  std::signal(SIGINT, handle_stop);

  DaemonTelemetry tel(opts.root, dp);
  tel.daemon_started();

  std::printf("serve: watching %s (jobs=%d, poll=%dms%s)\n",
              dp.queue.string().c_str(), opts.jobs, opts.poll_ms,
              opts.drain ? ", drain" : "");
  std::fflush(stdout);

  std::size_t processed = 0;
  const auto budget_left = [&] {
    return opts.max_jobs == 0 || processed < opts.max_jobs;
  };

  // Crash recovery: a previous daemon's running/ jobs come first — their
  // checkpoints are freshest and their artifacts are already half-built.
  for (const std::string& stem : job_stems(dp.running.string())) {
    if (g_stop != 0 || !budget_left()) break;
    std::printf("serve: recovering interrupted job %s\n", stem.c_str());
    std::fflush(stdout);
    process_job(dp, stem, opts, tel, /*recovered=*/true);
    ++processed;
  }

  while (g_stop == 0 && budget_left()) {
    const std::vector<std::string> stems = job_stems(dp.queue.string());
    if (stems.empty()) {
      if (opts.drain) break;
      wait_for_drop(watch.get(), opts.poll_ms);
      continue;
    }
    for (const std::string& stem : stems) {
      if (g_stop != 0 || !budget_left()) break;
      // Claim by atomic rename; ENOENT means the file left queue/ since
      // the scan (a user took it back), so skip it.
      std::error_code ec;
      fs::rename(dp.queue / (stem + ".json"), dp.running / (stem + ".json"),
                 ec);
      if (ec) continue;
      process_job(dp, stem, opts, tel, /*recovered=*/false);
      ++processed;
    }
  }

  tel.daemon_stopped(processed);
  std::printf("serve: exiting after %zu job%s\n", processed,
              processed == 1 ? "" : "s");
  std::fflush(stdout);
  return 0;
}

}  // namespace dvs::serve
