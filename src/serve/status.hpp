// Daemon status snapshot (`dvs-serve-status-v1`), per-job summary
// artifact (`dvs-job-summary-v1`), and the cross-job metrics fold behind
// `<root>/metrics.om`.
//
// `<root>/status.json` is the daemon's observable state: pid/uptime,
// queue depth, per-job state + progress (units done/total and ETA from
// the executor's progress record of every executed unit, elapsed since
// the claim), and the warmth of the process-wide threshold-table / TISMDP caches.
// Every write goes to `status.json.tmp` and renames over the target, so a
// reader never sees a half-written document no matter when the daemon
// dies (the checkpoint discipline, applied to the snapshot).
//
// `done/<id>.out/job_summary.json` is the durable per-job rollup the
// daemon leaves behind once a job finishes (checkpoints are deleted on
// success, so this file is what survives): counters, energy, and the
// job's delay QuantileSketch in pinned dvs-sketch-v1 text.  It carries
// the job id — the trace-context key that links a `metrics.om` line back
// to the job's checkpoint records, events, and flight dumps.
//
// `fold_daemon_metrics` folds those summaries in sorted file-stem order
// (the fleet-fold discipline), so `metrics.om` is byte-identical no matter
// in which order jobs completed or how many daemon restarts happened along
// the way.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "detect/table_cache.hpp"
#include "dpm/solve_cache.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/telemetry/quantile_sketch.hpp"

namespace dvs::serve {

inline constexpr const char* kStatusSchema = "dvs-serve-status-v1";
inline constexpr const char* kJobSummarySchema = "dvs-job-summary-v1";

/// One job's row in the status snapshot.
struct JobStatus {
  std::string id;
  std::string kind;   ///< run|sweep|fleet ("" when the spec failed to parse)
  std::string state;  ///< queued|running|done|failed
  std::size_t units_done = 0;
  std::size_t units_total = 0;
  double elapsed_s = 0.0;
  double eta_s = -1.0;  ///< < 0 = unknown (no units finished yet)

  /// Takes done, total and ETA from the executor's record, unchanged.
  void set_progress(const core::UnitProgress& p) {
    units_done = p.done;
    units_total = p.total;
    eta_s = p.eta_s;
  }
};

struct ServeStatus {
  int pid = 0;
  std::string state;  ///< "running" | "stopped"
  double started_unix = 0.0;
  double updated_unix = 0.0;
  double uptime_s = 0.0;
  std::uint64_t last_seq = 0;  ///< last event-log sequence number
  std::size_t jobs_done = 0;
  std::size_t jobs_failed = 0;
  std::size_t queue_depth = 0;
  detect::TableCacheStats table_cache;
  dpm::SolveCacheStats solve_cache;
  std::vector<JobStatus> jobs;  ///< running first, then queued (claim order)
};

/// Writes the snapshot to `path + ".tmp"` and renames it over `path`.
/// Throws std::runtime_error on I/O failure.
void write_status_atomic(const ServeStatus& status, const std::string& path);

/// Loads a status snapshot; throws std::runtime_error when the file is
/// missing/unreadable or the schema does not match.
ServeStatus load_status(const std::string& path);

/// The per-job rollup written to `<output_dir>/job_summary.json`.
struct JobSummary {
  std::string job_id;
  std::string kind;  ///< run|sweep|fleet
  std::size_t units_total = 0;
  std::size_t executed = 0;
  std::size_t restored = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_dropped = 0;
  double energy_j = 0.0;
  double elapsed_s = 0.0;
  /// Per-frame delay distribution (run/sweep jobs; empty for fleet).
  obs::QuantileSketch frame_delay_sketch;
  double frame_delay_sum_s = 0.0;
  /// Per-device mean-delay distribution (fleet jobs; empty otherwise).
  obs::QuantileSketch device_delay_sketch;
  double device_delay_sum_s = 0.0;
};

/// Throws std::runtime_error on I/O failure.
void write_job_summary(const JobSummary& summary, const std::string& path);

/// Throws std::runtime_error when missing/unreadable or on schema mismatch.
JobSummary load_job_summary(const std::string& path);

/// Sorted stems of the `<stem>.json` job files in `dir` (hidden files
/// skipped); empty when `dir` does not exist.
std::vector<std::string> job_stems(const std::string& dir);

/// done/ stem -> its `<stem>.out/job_summary.json`, nullopt when missing
/// or unparsable.  load_done_jobs never throws on one bad file.
using DoneJobs = std::map<std::string, std::optional<JobSummary>>;
DoneJobs load_done_jobs(const std::string& root);

/// Folds `done` (stem order — deterministic in the set of completed jobs
/// alone) plus the failed count into one registry: serve.jobs_done /
/// serve.jobs_failed / serve.jobs_unsummarized (nullopt entries, which
/// fold no numbers) / serve.frames_decoded / serve.frames_dropped /
/// serve.units_executed / serve.units_restored counters, a serve.energy_j
/// gauge, and serve.frame_delay_s / serve.device_delay_s summaries
/// (created even when empty so the metrics.om family set is stable from
/// the first scrape).
obs::MetricsRegistry fold_daemon_metrics(const DoneJobs& done,
                                         std::size_t failed_jobs);

/// The cold fold: load_done_jobs(root) and the failed/ job count.
obs::MetricsRegistry collect_daemon_metrics(const std::string& root);

}  // namespace dvs::serve
