#include "core/units.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include "common/check.hpp"
#include "common/json.hpp"

namespace dvs::core {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min(static_cast<std::size_t>(resolve_jobs(jobs)), n);
  if (n == 0) return;
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Each worker owns a contiguous index range and pops from its front; an
  // idle worker steals from the *back* of the victim with the most work
  // left.  Units are whole simulations, so stealing one index at a time is
  // granular enough.
  struct Range {
    std::mutex m;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Range> ranges(workers);
  const std::size_t chunk = n / workers;
  const std::size_t extra = n % workers;
  std::size_t at = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    ranges[w].begin = at;
    at += chunk + (w < extra ? 1 : 0);
    ranges[w].end = at;
  }

  std::atomic<bool> stop{false};
  std::exception_ptr first_error;
  std::mutex error_m;

  auto worker = [&](std::size_t self) {
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) return;
      std::size_t i = n;  // sentinel: nothing claimed yet
      {
        std::lock_guard<std::mutex> lk(ranges[self].m);
        if (ranges[self].begin < ranges[self].end) i = ranges[self].begin++;
      }
      if (i == n) {
        std::size_t victim = workers;
        std::size_t most = 0;
        for (std::size_t v = 0; v < workers; ++v) {
          if (v == self) continue;
          std::lock_guard<std::mutex> lk(ranges[v].m);
          const std::size_t left = ranges[v].end - ranges[v].begin;
          if (left > most) {
            most = left;
            victim = v;
          }
        }
        if (victim == workers) return;  // everything drained
        {
          std::lock_guard<std::mutex> lk(ranges[victim].m);
          if (ranges[victim].begin < ranges[victim].end) {
            i = --ranges[victim].end;
          }
        }
        if (i == n) continue;  // lost the race; rescan
      }
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_m);
          if (!first_error) first_error = std::current_exception();
        }
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

UnitReporter open_unit_progress(const std::string& heartbeat_path,
                                obs::TelemetrySnapshotter* telemetry,
                                const char* source, const char* name_key,
                                const std::string& name, std::size_t total,
                                std::size_t done) {
  auto file = std::make_shared<std::ofstream>();
  std::ostream* heartbeat = nullptr;
  if (heartbeat_path == "-") {
    heartbeat = &std::cerr;
  } else if (!heartbeat_path.empty()) {
    file->open(heartbeat_path);
    DVS_CHECK_MSG(static_cast<bool>(*file),
                  std::string(source) + ": cannot open heartbeat path " +
                      heartbeat_path);
    heartbeat = file.get();
  }
  if (telemetry != nullptr && !telemetry->active()) telemetry = nullptr;
  if (heartbeat == nullptr && telemetry == nullptr) return {};
  const std::string prefix = "{\"" + std::string(name_key) + "\":\"" +
                             json::escape(name) + "\",";

  return [file, heartbeat, telemetry, prefix, source, total, done,
          t0 = std::chrono::steady_clock::now()](
             std::size_t weight, const UnitFields& fields,
             const obs::MetricsRegistry* reg) mutable {
    done += weight;
    const double t =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (heartbeat != nullptr) {
      const double eta = t * static_cast<double>(total - done) /
                         static_cast<double>(done);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"done\":%zu,\"total\":%zu,"
                    "\"elapsed_s\":%.3f,\"eta_s\":%.3f",
                    done, total, t, eta);
      std::string line = prefix + buf;
      for (const auto& [key, value] : fields) {
        std::snprintf(buf, sizeof buf, ",\"%s\":%.9g", key.c_str(), value);
        line += buf;
      }
      *heartbeat << line << "}\n" << std::flush;
    }
    if (telemetry != nullptr) {
      static const obs::MetricsRegistry kEmpty;
      UnitFields live{{"done", static_cast<double>(done)},
                      {"total", static_cast<double>(total)}};
      live.insert(live.end(), fields.begin(), fields.end());
      telemetry->snapshot(t, source, reg != nullptr ? *reg : kEmpty, live);
    }
  };
}

}  // namespace dvs::core
