// dvs-events-v1: the daemon's lifecycle narration must survive exactly
// what the daemon survives — append/reload round trips, SIGKILL-torn
// trailing lines (intact prefix only, the checkpoint contract), and
// daemon restarts (a new writer resumes the monotone sequence counter
// from the intact prefix, so multi-lifetime histories stay ordered).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/event_log.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(EventLog, LifecycleRoundTrip) {
  const std::string path = temp_path("events_rt.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.daemon_start(4242);
    log.job_claimed("night-sweep");
    log.job_finished("night-sweep", "sweep", 9, 3);
    log.job_failed("bad-job", "boom: it broke", "failed/bad-job.out/flight");
    log.daemon_stop(2);
    EXPECT_EQ(log.last_seq(), 5u);
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1) << "seq must be monotone from 1";
    EXPECT_GT(events[i].ts, 0.0);
  }
  EXPECT_EQ(events[0].type, "daemon_start");
  EXPECT_EQ(events[0].pid, 4242);
  EXPECT_EQ(events[1].type, "job_claimed");
  EXPECT_EQ(events[1].job, "night-sweep");
  EXPECT_EQ(events[2].type, "job_finished");
  EXPECT_EQ(events[2].kind, "sweep");
  EXPECT_EQ(events[2].executed, 9u);
  EXPECT_EQ(events[2].restored, 3u);
  EXPECT_EQ(events[3].type, "job_failed");
  EXPECT_EQ(events[3].error, "boom: it broke");
  EXPECT_EQ(events[3].flight_dir, "failed/bad-job.out/flight");
  EXPECT_EQ(events[4].type, "daemon_stop");
  EXPECT_EQ(events[4].jobs_processed, 2u);
  fs::remove(path);
}

TEST(EventLog, RecoveredJobGetsItsOwnEventType) {
  const std::string path = temp_path("events_recovered.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.job_claimed("crashed-job", /*recovered=*/true);
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, "job_recovered");
  EXPECT_EQ(events[0].job, "crashed-job");
  fs::remove(path);
}

TEST(EventLog, TornTrailingLineKeepsIntactPrefix) {
  const std::string path = temp_path("events_torn.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.daemon_start(1);
    log.job_claimed("j1");
  }
  {
    // Simulate a SIGKILL mid-append: a record cut off mid-object.
    std::ofstream os(path, std::ios::app);
    os << R"({"seq": 3, "ts": 1754650000.5, "event": "job_fini)";
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].type, "job_claimed");
  fs::remove(path);
}

TEST(EventLog, BadIntegerEndsTheIntactPrefix) {
  const std::string path = temp_path("events_bad_integer.jsonl");
  for (const char* bad :
       {R"({"seq": 1e300, "ts": 1.0, "event": "job_claimed", "job": "x"})",
        R"({"seq": 3, "ts": 1.0, "event": "job_finished", "job": "x",)"
        R"( "kind": "run", "executed": -1, "restored": 0})"}) {
    fs::remove(path);
    {
      EventLog log(path);
      log.daemon_start(1);
      log.job_claimed("j1");
    }
    {
      std::ofstream os(path, std::ios::app);
      os << bad << "\n"
         << R"({"seq": 4, "ts": 1.0, "event": "daemon_stop"})" << "\n";
    }
    const std::vector<ServeEvent> events = load_events(path);
    ASSERT_EQ(events.size(), 2u) << bad;
    EXPECT_EQ(events[1].type, "job_claimed");
  }
  fs::remove(path);
}

TEST(EventLog, OldCheckpointFlushRecordsStillLoad) {
  // Logs written before checkpoint_flush was dropped keep loading: the
  // record is one more event of a type with no detail.
  const std::string path = temp_path("events_old_flush.jsonl");
  {
    std::ofstream os(path);
    os << R"({"schema": "dvs-events-v1"})" << "\n"
       << R"({"seq": 1, "ts": 1.0, "event": "checkpoint_flush", "job": "j",)"
       << R"( "units_done": 3, "units_total": 12})" << "\n"
       << R"({"seq": 2, "ts": 2.0, "event": "daemon_stop",)"
       << R"( "jobs_processed": 1})" << "\n";
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, "checkpoint_flush");
  EXPECT_EQ(events[0].job, "j");
  EXPECT_EQ(event_detail(events[0]), "");
  EXPECT_EQ(events[1].type, "daemon_stop");
  fs::remove(path);
}

TEST(EventLog, SequenceResumesAcrossRestartPastTornTail) {
  const std::string path = temp_path("events_resume.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.daemon_start(1);
    log.job_claimed("j1");
    log.job_finished("j1", "run", 1, 0);
  }
  {
    std::ofstream os(path, std::ios::app);
    os << R"({"seq": 4, "ts": 17)";  // torn daemon_stop
  }
  {
    // The next daemon's writer truncates the torn fragment (appending
    // after it would corrupt the glued line) and resumes from seq 3.
    EventLog log(path);
    EXPECT_EQ(log.last_seq(), 3u);
    log.daemon_start(2);
    EXPECT_EQ(log.last_seq(), 4u);
  }
  const std::vector<ServeEvent> events = load_events(path);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3].seq, 4u);
  EXPECT_EQ(events[3].type, "daemon_start");
  EXPECT_EQ(events[3].pid, 2);
  // The torn fragment must be gone from the file, not merely skipped on
  // read — a reader that breaks at the first unparsable line would
  // otherwise never see the post-restart history.
  std::ifstream in(path);
  std::string line;
  int seq4_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("\"seq\": 4") != std::string::npos) ++seq4_lines;
  }
  EXPECT_EQ(seq4_lines, 1) << "only the real seq-4 record survives";
  fs::remove(path);
}

TEST(EventLog, SingleHeaderAcrossReopen) {
  const std::string path = temp_path("events_reopen.jsonl");
  fs::remove(path);
  {
    EventLog log(path);
    log.daemon_start(1);
  }
  {
    EventLog log(path);
    log.daemon_start(2);
  }
  std::ifstream in(path);
  std::string line;
  int headers = 0;
  while (std::getline(in, line)) {
    if (line.find("dvs-events-v1") != std::string::npos) ++headers;
  }
  EXPECT_EQ(headers, 1);
  fs::remove(path);
}

TEST(EventLog, MissingFileLoadsEmpty) {
  EXPECT_TRUE(load_events(temp_path("events_never_written.jsonl")).empty());
}

TEST(EventLog, WrongSchemaThrows) {
  const std::string path = temp_path("events_wrong_schema.jsonl");
  {
    std::ofstream os(path);
    os << R"({"schema": "dvs-checkpoint-v1"})" << "\n";
  }
  EXPECT_THROW((void)load_events(path), std::runtime_error);
  fs::remove(path);
}

}  // namespace
}  // namespace dvs::serve
