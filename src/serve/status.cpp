#include "serve/status.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace dvs::serve {
namespace fs = std::filesystem;

void write_status_atomic(const ServeStatus& status, const std::string& path) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kStatusSchema << "\",\n"
     << "  \"pid\": " << status.pid << ",\n"
     << "  \"state\": \"" << status.state << "\",\n"
     << "  \"started\": " << json::fmt17(status.started_unix) << ",\n"
     << "  \"updated\": " << json::fmt17(status.updated_unix) << ",\n"
     << "  \"uptime_s\": " << json::fmt17(status.uptime_s) << ",\n"
     << "  \"last_seq\": " << status.last_seq << ",\n"
     << "  \"jobs_done\": " << status.jobs_done << ",\n"
     << "  \"jobs_failed\": " << status.jobs_failed << ",\n"
     << "  \"queue_depth\": " << status.queue_depth << ",\n"
     << "  \"cache\": {\n"
     << "    \"threshold_table\": {\"hits\": " << status.table_cache.hits
     << ", \"misses\": " << status.table_cache.misses
     << ", \"entries\": " << status.table_cache.entries << "},\n"
     << "    \"tismdp_solve\": {\"hits\": " << status.solve_cache.hits
     << ", \"misses\": " << status.solve_cache.misses
     << ", \"entries\": " << status.solve_cache.entries << "}\n"
     << "  },\n  \"jobs\": [";
  for (std::size_t i = 0; i < status.jobs.size(); ++i) {
    const JobStatus& j = status.jobs[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"id\": \"" << json::escape(j.id)
       << "\", \"kind\": \"" << j.kind << "\", \"state\": \"" << j.state
       << "\", \"units_done\": " << j.units_done
       << ", \"units_total\": " << j.units_total
       << ", \"elapsed_s\": " << json::fmt17(j.elapsed_s);
    if (j.eta_s >= 0.0) os << ", \"eta_s\": " << json::fmt17(j.eta_s);
    os << "}";
  }
  os << (status.jobs.empty() ? "" : "\n  ") << "]\n}\n";
  json::write_file_atomic(path, os.str());
}

ServeStatus load_status(const std::string& path) {
  const json::ValuePtr doc = json::parse_file(path);
  if (doc->string_or("schema", "") != kStatusSchema) {
    throw std::runtime_error("status " + path + ": schema is not \"" +
                             std::string(kStatusSchema) + "\"");
  }
  ServeStatus s;
  s.pid = static_cast<int>(doc->integer_or("pid", 0, INT_MAX));
  s.state = doc->string_or("state", "");
  s.started_unix = doc->number_or("started", 0.0);
  s.updated_unix = doc->number_or("updated", 0.0);
  s.uptime_s = doc->number_or("uptime_s", 0.0);
  s.last_seq = doc->integer_or("last_seq", 0, UINT64_MAX);
  s.jobs_done = doc->integer_or("jobs_done", 0, SIZE_MAX);
  s.jobs_failed = doc->integer_or("jobs_failed", 0, SIZE_MAX);
  s.queue_depth = doc->integer_or("queue_depth", 0, SIZE_MAX);
  if (const json::Value* cache = doc->find("cache"); cache != nullptr) {
    if (const json::Value* t = cache->find("threshold_table"); t != nullptr) {
      s.table_cache.hits = t->integer_or("hits", 0, UINT64_MAX);
      s.table_cache.misses = t->integer_or("misses", 0, UINT64_MAX);
      s.table_cache.entries = t->integer_or("entries", 0, SIZE_MAX);
    }
    if (const json::Value* t = cache->find("tismdp_solve"); t != nullptr) {
      s.solve_cache.hits = t->integer_or("hits", 0, UINT64_MAX);
      s.solve_cache.misses = t->integer_or("misses", 0, UINT64_MAX);
      s.solve_cache.entries = t->integer_or("entries", 0, SIZE_MAX);
    }
  }
  if (const json::Value* jobs = doc->find("jobs"); jobs != nullptr) {
    for (const json::ValuePtr& jv : jobs->as_array()) {
      JobStatus j;
      j.id = jv->string_or("id", "");
      j.kind = jv->string_or("kind", "");
      j.state = jv->string_or("state", "");
      j.units_done = jv->integer_or("units_done", 0, SIZE_MAX);
      j.units_total = jv->integer_or("units_total", 0, SIZE_MAX);
      j.elapsed_s = jv->number_or("elapsed_s", 0.0);
      j.eta_s = jv->number_or("eta_s", -1.0);
      s.jobs.push_back(std::move(j));
    }
  }
  return s;
}

void write_job_summary(const JobSummary& summary, const std::string& path) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kJobSummarySchema << "\",\n"
     << "  \"job\": \"" << json::escape(summary.job_id) << "\",\n"
     << "  \"kind\": \"" << summary.kind << "\",\n"
     << "  \"units_total\": " << summary.units_total << ",\n"
     << "  \"executed\": " << summary.executed << ",\n"
     << "  \"restored\": " << summary.restored << ",\n"
     << "  \"frames_decoded\": " << summary.frames_decoded << ",\n"
     << "  \"frames_dropped\": " << summary.frames_dropped << ",\n"
     << "  \"energy_j\": " << json::fmt17(summary.energy_j) << ",\n"
     << "  \"elapsed_s\": " << json::fmt17(summary.elapsed_s) << ",\n"
     << "  \"frame_delay_sum_s\": " << json::fmt17(summary.frame_delay_sum_s)
     << ",\n"
     << "  \"frame_delay_sketch\": \""
     << json::escape(obs::sketch_text(summary.frame_delay_sketch)) << "\",\n"
     << "  \"device_delay_sum_s\": " << json::fmt17(summary.device_delay_sum_s)
     << ",\n"
     << "  \"device_delay_sketch\": \""
     << json::escape(obs::sketch_text(summary.device_delay_sketch)) << "\"\n}\n";
  json::write_file_atomic(path, os.str());
}

JobSummary load_job_summary(const std::string& path) {
  const json::ValuePtr doc = json::parse_file(path);
  if (doc->string_or("schema", "") != kJobSummarySchema) {
    throw std::runtime_error("job summary " + path + ": schema is not \"" +
                             std::string(kJobSummarySchema) + "\"");
  }
  JobSummary s;
  s.job_id = doc->string_or("job", "");
  s.kind = doc->string_or("kind", "");
  s.units_total = doc->integer_or("units_total", 0, SIZE_MAX);
  s.executed = doc->integer_or("executed", 0, SIZE_MAX);
  s.restored = doc->integer_or("restored", 0, SIZE_MAX);
  s.frames_decoded = doc->integer_or("frames_decoded", 0, UINT64_MAX);
  s.frames_dropped = doc->integer_or("frames_dropped", 0, UINT64_MAX);
  s.energy_j = doc->number_or("energy_j", 0.0);
  s.elapsed_s = doc->number_or("elapsed_s", 0.0);
  s.frame_delay_sum_s = doc->number_or("frame_delay_sum_s", 0.0);
  s.frame_delay_sketch =
      obs::sketch_from_text(doc->string_or("frame_delay_sketch", ""));
  s.device_delay_sum_s = doc->number_or("device_delay_sum_s", 0.0);
  s.device_delay_sketch =
      obs::sketch_from_text(doc->string_or("device_delay_sketch", ""));
  return s;
}

std::vector<std::string> job_stems(const std::string& dir) {
  std::vector<std::string> stems;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path p = entry.path();
    if (p.extension() != ".json" || p.filename().string().front() == '.') {
      continue;
    }
    stems.push_back(p.stem().string());
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

DoneJobs load_done_jobs(const std::string& root) {
  DoneJobs done;
  for (const std::string& stem : job_stems(root + "/done")) {
    try {
      done[stem] = load_job_summary(root + "/done/" + stem +
                                    ".out/job_summary.json");
    } catch (const std::exception&) {
      done[stem] = std::nullopt;  // missing or unparsable: unsummarized
    }
  }
  return done;
}

obs::MetricsRegistry fold_daemon_metrics(const DoneJobs& done,
                                         std::size_t failed_jobs) {
  obs::MetricsRegistry reg;
  // Families exist from the first scrape, even with nothing completed yet;
  // delay shapes match the engine's frames.delay_s histogram.
  reg.counter("serve.jobs_done") = 0;
  reg.counter("serve.jobs_failed") = 0;
  reg.counter("serve.jobs_unsummarized") = 0;
  reg.counter("serve.frames_decoded") = 0;
  reg.counter("serve.frames_dropped") = 0;
  reg.counter("serve.units_executed") = 0;
  reg.counter("serve.units_restored") = 0;
  reg.gauge("serve.energy_j") = 0.0;
  obs::HistogramMetric& frame_delay =
      reg.histogram("serve.frame_delay_s", 0.0, 2.0);
  obs::HistogramMetric& device_delay =
      reg.histogram("serve.device_delay_s", 0.0, 2.0);

  for (const auto& [stem, summary] : done) {
    ++reg.counter("serve.jobs_done");
    if (!summary) {
      ++reg.counter("serve.jobs_unsummarized");
      continue;
    }
    const JobSummary& s = *summary;
    reg.counter("serve.frames_decoded") += s.frames_decoded;
    reg.counter("serve.frames_dropped") += s.frames_dropped;
    reg.counter("serve.units_executed") += s.executed;
    reg.counter("serve.units_restored") += s.restored;
    reg.gauge("serve.energy_j") += s.energy_j;
    frame_delay.absorb_sketch(s.frame_delay_sketch, s.frame_delay_sum_s);
    device_delay.absorb_sketch(s.device_delay_sketch, s.device_delay_sum_s);
  }

  reg.counter("serve.jobs_failed") += failed_jobs;
  return reg;
}

obs::MetricsRegistry collect_daemon_metrics(const std::string& root) {
  return fold_daemon_metrics(load_done_jobs(root),
                             job_stems(root + "/failed").size());
}

}  // namespace dvs::serve
