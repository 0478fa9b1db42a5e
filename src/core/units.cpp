#include "core/units.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

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

}  // namespace dvs::core
