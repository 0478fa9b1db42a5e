// The ordered-unit executor: the one copy of the plumbing under sweep
// points, fleet shards and serve run jobs.
//
// A unit kind defines `n` independent units, how to execute unit i into a
// Partial, and the fields its progress records carry.  The executor owns
// everything else: restored-unit lookup and counting, the work-stealing
// pool, the progress lock, the per-unit callback, the one progress record
// per executed unit (done/total, elapsed, ETA, the kind's fields) handed
// to UnitOptions::on_progress, and the partials stored by index.  It
// writes no files: the CLI's --telemetry-jsonl and the serve daemon's
// status.json are the record's consumers.  The caller then folds the
// partials serially in index order, which is what keeps every output
// byte-identical at any --jobs and across a checkpoint restore: the
// schedule decides only when a unit runs, never where its partial lands.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dvs::obs {
class MetricsRegistry;
}

namespace dvs::core {

/// Resolves a --jobs value: 0 means hardware concurrency, floor 1.
int resolve_jobs(int jobs);

/// Runs fn(i) for every i in [0, n) on `jobs` threads.  Work is split into
/// per-worker ranges; idle workers steal from the back of the busiest
/// victim's remainder.  jobs <= 1 (after resolution) runs inline.  The
/// first exception thrown by fn is rethrown after all workers stop.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn);

/// A finished unit's progress fields, in record order.
using UnitFields = std::vector<std::pair<std::string, double>>;

/// The one progress record, built once per executed unit.  Counts are in
/// units (sweep points, fleet shards, 1 for a run job); restored units
/// count as done.
struct UnitProgress {
  std::size_t done = 0;
  std::size_t total = 0;
  double elapsed_s = 0.0;  ///< since run_units started
  /// Time left at the rate of the units this run executed, so restored
  /// units do not make the rest look free.
  double eta_s = 0.0;
  UnitFields fields;  ///< the kind's fields for this unit
  const obs::MetricsRegistry* registry = nullptr;  ///< this unit's, or null
};

/// Options every unit kind shares (SweepOptions and FleetOptions inherit
/// them).  None of them changes a result byte.
template <class Partial>
struct UnitOptions {
  int jobs = 1;  ///< 0 = hardware concurrency
  /// Checkpoint/restore (the serve daemon's hooks).  Units whose index
  /// appears here are not executed: their partial takes the executed one's
  /// place in the fold, they count as already done, and they produce no
  /// callbacks.  Indices at or past the unit count are ignored.
  const std::map<std::size_t, Partial>* restored = nullptr;
  /// Called with the progress record of every executed unit: serialized,
  /// completion order, under the progress lock after the kind's per-unit
  /// callback.  The record is built only when this is set.
  std::function<void(const UnitProgress&)> on_progress;
};

/// One unit kind on top of the executor.
template <class Partial>
struct UnitPlan {
  std::size_t n = 0;
  /// Runs unit i on a worker thread.  Must touch only unit i's state.
  std::function<Partial(std::size_t)> execute;
  /// Called after every *executed* unit: serialized, completion order, on
  /// the worker that ran it, right after it finished.
  std::function<void(std::size_t, const Partial&)> on_unit;
  /// Called once per restored unit before dispatch (seeds running state).
  std::function<void(std::size_t, const Partial&)> on_restored;
  /// The kind's progress fields for executed unit i, under the lock after
  /// on_unit.  Only called while on_progress is set.
  std::function<UnitFields(std::size_t, const Partial&)> fields;
  /// Registry unit i's progress record carries; empty or null = none.
  std::function<const obs::MetricsRegistry*(std::size_t)> registry;
};

/// Units restored from a checkpoint versus executed by this run.
struct UnitCounts {
  std::size_t executed = 0;
  std::size_t restored = 0;
};

template <class Partial>
struct UnitRun {
  std::vector<Partial> partials;  ///< index order, ready for the fold
  UnitCounts counts;
  double wall_seconds = 0.0;
};

/// Executes every unit of `plan` that `opts.restored` does not supply.
template <class Partial>
UnitRun<Partial> run_units(const UnitOptions<Partial>& opts,
                           const UnitPlan<Partial>& plan) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto since_t0 = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  UnitRun<Partial> out;
  out.partials.resize(plan.n);
  std::vector<char> restored(plan.n, 0);
  if (opts.restored != nullptr) {
    for (auto it = opts.restored->begin(),
              end = opts.restored->lower_bound(plan.n);
         it != end; ++it) {
      const auto& [i, part] = *it;
      out.partials[i] = part;
      restored[i] = 1;
      ++out.counts.restored;
      if (plan.on_restored) plan.on_restored(i, part);
    }
  }
  out.counts.executed = plan.n - out.counts.restored;

  std::mutex progress_m;
  std::size_t executed = 0;  // so far, under progress_m
  parallel_for(plan.n, opts.jobs, [&](std::size_t i) {
    if (restored[i] != 0) return;
    out.partials[i] = plan.execute(i);
    if (!plan.on_unit && !opts.on_progress) return;
    std::lock_guard<std::mutex> lk(progress_m);
    const Partial& part = out.partials[i];
    if (plan.on_unit) plan.on_unit(i, part);
    if (!opts.on_progress) return;
    UnitProgress p;
    p.done = out.counts.restored + ++executed;
    p.total = plan.n;
    p.elapsed_s = since_t0();
    p.eta_s = p.elapsed_s * static_cast<double>(p.total - p.done) /
              static_cast<double>(executed);
    if (plan.fields) p.fields = plan.fields(i, part);
    if (plan.registry) p.registry = plan.registry(i);
    opts.on_progress(p);
  });
  out.wall_seconds = since_t0();
  return out;
}

}  // namespace dvs::core
