// The `dvs_sim serve` daemon: a file-drop job queue over one directory
// tree.  Filesystem rename is the only coordination primitive — atomic on
// one filesystem, observable with `ls`, and recoverable after a SIGKILL by
// looking at which directory a job file sits in.
//
//   <root>/queue/<name>.json     waiting jobs; enqueue = atomic rename in
//   <root>/running/<name>.json   the job currently being executed
//   <root>/running/<name>.out/   its artifacts while in flight
//   <root>/done/<name>.json      completed jobs (+ <name>.out/ artifacts)
//   <root>/failed/<name>.json    rejected/crashed jobs (+ <name>.error.txt)
//   <root>/checkpoints/<name>.ckpt.jsonl   durable progress of running jobs
//   <root>/events.jsonl          lifecycle event log (dvs-events-v1),
//                                flushed per record, monotone seq numbers
//   <root>/status.json           atomically-replaced snapshot
//                                (dvs-serve-status-v1): pid/uptime, per-job
//                                progress + ETA, cache warmth
//   <root>/metrics.om            OpenMetrics scrape file folding every
//                                done/<name>.out/job_summary.json (held in
//                                memory) in sorted stem order, so it is
//                                byte-identical whatever the completion order
//   <root>/daemon.lock           flock()ed by the serving daemon: one
//                                daemon per root, a second exits 2
//
// Observe a live daemon with `dvs_sim status <root>` and
// `dvs_sim tail <root>` (docs/SERVING.md "Observing a live daemon").
//
// While idle the daemon blocks on an inotify watch of queue/, so a drop is
// claimed as it lands; poll_ms only bounds the wait between scans, a
// backstop for filesystems that deliver no events.
//
// Claim order is lexicographic file-name order (drop "000-", "001-"
// prefixes to sequence work).  Dotfiles and non-.json entries are ignored,
// so `mv tmp queue/job.json` plus editors' swap files are both safe.
//
// Crash recovery: on startup any job still in running/ is re-executed
// first, restoring from its checkpoint — completed sweep points / fleet
// shards are skipped and the final CSVs are byte-identical to an
// uninterrupted run.  SIGTERM/SIGINT finish the current job, then exit;
// SIGKILL is the crash path recovery exists for.
#pragma once

#include <cstddef>
#include <string>

namespace dvs::serve {

struct DaemonOptions {
  std::string root;  ///< queue root; subdirectories are created as needed
  int jobs = 0;      ///< worker threads per job when the job says 0 (0 = hw)
  /// Longest idle wait between queue scans.  Drops wake the daemon at
  /// once through inotify; this backstop covers filesystems (or a failed
  /// watch set-up) that deliver no events.
  int poll_ms = 200;
  /// Exit once queue/ and running/ are both empty (batch mode; also the CI
  /// smoke mode).  false = keep serving until a signal.
  bool drain = false;
  std::size_t max_jobs = 0;  ///< stop after N jobs (0 = unlimited)
};

/// Runs the daemon loop; returns a process exit code (0 = clean shutdown,
/// 2 = unusable root directory, or another daemon holds its lock).
/// Installs SIGTERM/SIGINT handlers for graceful shutdown (restores
/// nothing: the process exits afterwards).
int run_daemon(const DaemonOptions& opts);

}  // namespace dvs::serve
