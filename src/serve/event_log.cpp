#include "serve/event_log.hpp"

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>

#include "common/json.hpp"

namespace dvs::serve {
namespace {

std::string fmt_ts(double ts) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", ts);
  return buf;
}

}  // namespace

EventLog::EventLog(const std::string& path)
    : out_(json::append_jsonl(
          path, std::string("{\"schema\": \"") + kEventsSchema + "\"}")) {
  // A SIGKILL-torn final record was never durable (append_jsonl dropped
  // it): its transition is re-narrated by the recovery events that follow.
  // Resume the sequence counter from the intact prefix so seq stays
  // monotone across daemon restarts.
  for (const ServeEvent& ev : load_events(path)) seq_ = ev.seq;
}

void EventLog::append(const std::string& type, const std::string& job,
                      const std::string& fields) {
  out_ << "{\"seq\": " << ++seq_ << ", \"ts\": " << fmt_ts(now_unix())
       << ", \"event\": \"" << type << "\"";
  if (!job.empty()) out_ << ", \"job\": \"" << json::escape(job) << "\"";
  if (!fields.empty()) out_ << ", " << fields;
  out_ << "}\n";
  out_.flush();
}

void EventLog::daemon_start(int pid) {
  append("daemon_start", "", "\"pid\": " + std::to_string(pid));
}

void EventLog::daemon_stop(std::size_t jobs_processed) {
  append("daemon_stop", "",
         "\"jobs_processed\": " + std::to_string(jobs_processed));
}

void EventLog::job_claimed(const std::string& job, bool recovered) {
  append(recovered ? "job_recovered" : "job_claimed", job, "");
}

void EventLog::job_finished(const std::string& job, const std::string& kind,
                            std::size_t executed, std::size_t restored) {
  append("job_finished", job,
         "\"kind\": \"" + kind + "\", \"executed\": " +
             std::to_string(executed) +
             ", \"restored\": " + std::to_string(restored));
}

void EventLog::job_failed(const std::string& job, const std::string& error,
                          const std::string& flight_dir) {
  std::string fields = "\"error\": \"" + json::escape(error) + "\"";
  if (!flight_dir.empty()) {
    fields += ", \"flight_dir\": \"" + json::escape(flight_dir) + "\"";
  }
  append("job_failed", job, fields);
}

std::vector<ServeEvent> load_events(const std::string& path) {
  std::vector<ServeEvent> events;
  json::read_jsonl_prefix(
      path, kEventsSchema, "event log", {}, [&](const json::Value& doc) {
        ServeEvent ev;
        ev.seq = doc.integer_or("seq", 0, UINT64_MAX);
        ev.ts = doc.number_or("ts", 0.0);
        ev.type = doc.string_or("event", "");
        ev.job = doc.string_or("job", "");
        ev.kind = doc.string_or("kind", "");
        ev.error = doc.string_or("error", "");
        ev.flight_dir = doc.string_or("flight_dir", "");
        ev.executed = doc.integer_or("executed", 0, SIZE_MAX);
        ev.restored = doc.integer_or("restored", 0, SIZE_MAX);
        ev.pid = static_cast<int>(doc.integer_or("pid", 0, INT_MAX));
        ev.jobs_processed = doc.integer_or("jobs_processed", 0, SIZE_MAX);
        if (ev.type.empty() || ev.seq == 0) return false;  // shape-torn
        events.push_back(std::move(ev));
        return true;
      });
  return events;
}

double now_unix() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

std::string event_detail(const ServeEvent& ev) {
  if (ev.type == "daemon_start") return "pid " + std::to_string(ev.pid);
  if (ev.type == "daemon_stop") {
    return "after " + std::to_string(ev.jobs_processed) + " job" +
           (ev.jobs_processed == 1 ? "" : "s");
  }
  if (ev.type == "job_finished") {
    return ev.kind + ", " + std::to_string(ev.executed) + " executed, " +
           std::to_string(ev.restored) + " restored";
  }
  if (ev.type == "job_failed") {
    std::string d = ev.error;
    if (!ev.flight_dir.empty()) d += " (flight dumps: " + ev.flight_dir + ")";
    return d;
  }
  return {};
}

}  // namespace dvs::serve
