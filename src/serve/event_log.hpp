// Daemon lifecycle event log (`dvs-events-v1`): an append-only JSONL file
// at `<root>/events.jsonl`, one flushed record per lifecycle transition —
// daemon start/stop, job claimed/recovered, job finished/failed.  The
// file is the daemon's durable narration: `dvs_sim tail` follows it live,
// `dvs_sim report --serve-root` renders it as a timeline, and after a
// SIGKILL the intact prefix plus the next daemon's recovery events
// reconstruct the full job history.
//
// Line 1 (header, written once when the file starts empty):
//   {"schema": "dvs-events-v1"}
// Every subsequent line is one event:
//   {"seq": 12, "ts": 1754650000.123456, "event": "job_claimed",
//    "job": "nightly-fleet", ...event-specific fields...}
//
// `seq` is monotone across daemon restarts: a new writer resumes from the
// last intact record's sequence number, so an observer can order events
// from several daemon lifetimes and detect the torn tail a SIGKILL leaves
// (the loader keeps every line up to the first unparsable one, the same
// contract as dvs-checkpoint-v1).  `ts` is a wall-clock unix timestamp in
// seconds — events are for operators, unlike the simulation's own
// deterministic artifacts.  Every append flushes, so `tail -f` and
// `dvs_sim tail` see a record the moment the transition happens.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace dvs::serve {

inline constexpr const char* kEventsSchema = "dvs-events-v1";

/// One parsed lifecycle event.  Fields not carried by the event's type
/// keep their zero/empty defaults.
struct ServeEvent {
  std::uint64_t seq = 0;
  double ts = 0.0;  ///< unix seconds, wall clock
  std::string type;
  std::string job;
  std::string kind;         ///< job_finished: run|sweep|fleet
  std::string error;        ///< job_failed: exception text
  std::string flight_dir;   ///< job_failed: flight-dump dir, when any exist
  std::size_t executed = 0;     ///< job_finished
  std::size_t restored = 0;     ///< job_finished
  int pid = 0;                  ///< daemon_start
  std::size_t jobs_processed = 0;  ///< daemon_stop
};

/// Appends lifecycle events to `<root>/events.jsonl`, one flushed JSONL
/// record per call.  Construction truncates a SIGKILL-torn trailing line
/// back to the last complete record (WAL recovery — appending after the
/// fragment would corrupt the next line), then loads the intact prefix to
/// resume the sequence counter.
class EventLog {
 public:
  /// Opens `path` for append; writes the schema header when the file is
  /// new.  Throws std::runtime_error when the file cannot be opened.
  explicit EventLog(const std::string& path);

  void daemon_start(int pid);
  void daemon_stop(std::size_t jobs_processed);
  /// `recovered` = the job was found in running/ after a crash rather
  /// than claimed from the queue (event type "job_recovered").
  void job_claimed(const std::string& job, bool recovered = false);
  void job_finished(const std::string& job, const std::string& kind,
                    std::size_t executed, std::size_t restored);
  void job_failed(const std::string& job, const std::string& error,
                  const std::string& flight_dir);

  /// Sequence number of the most recently appended (or recovered) record;
  /// 0 when the log is empty.
  [[nodiscard]] std::uint64_t last_seq() const { return seq_; }

 private:
  /// Writes one record with the common prefix plus `fields` (pre-rendered
  /// JSON members, e.g. `"pid": 42`), then flushes.
  void append(const std::string& type, const std::string& job,
              const std::string& fields);

  std::ofstream out_;
  std::uint64_t seq_ = 0;
};

/// Loads an event log; a missing file yields an empty vector, a torn
/// trailing line — or a record whose integer field is negative, fractional
/// or too large — ends the load at the last intact record (the checkpoint
/// contract).  Records of a type this build does not write (such as an
/// older log's) load with their common fields.  Throws std::runtime_error when the header names a
/// different schema.
std::vector<ServeEvent> load_events(const std::string& path);

/// Wall-clock unix seconds, the `ts` of every event.
double now_unix();

/// One-line human detail of an event ("pid 42", "after 3 jobs", ...);
/// empty for types without one.
std::string event_detail(const ServeEvent& ev);

}  // namespace dvs::serve
