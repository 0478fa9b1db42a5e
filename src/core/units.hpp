// The ordered-unit executor: the one copy of the plumbing under sweep
// points, fleet shards and serve run jobs.
//
// A unit kind defines `n` independent units, how to execute unit i into a
// Partial, and the fields its progress records carry.  The executor owns
// everything else: restored-unit lookup and counting, the work-stealing
// pool, the progress lock, the per-unit callback, the heartbeat JSONL and
// telemetry snapshot per finished unit (done/total weighted by unit size,
// elapsed, ETA), and the partials stored by index.  The caller then folds
// the partials serially in index order, which is what keeps every output
// byte-identical at any --jobs and across a checkpoint restore: the
// schedule decides only when a unit runs, never where its partial lands.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/telemetry/snapshotter.hpp"

namespace dvs::core {

/// Resolves a --jobs value: 0 means hardware concurrency, floor 1.
int resolve_jobs(int jobs);

/// Runs fn(i) for every i in [0, n) on `jobs` threads.  Work is split into
/// per-worker ranges; idle workers steal from the back of the busiest
/// victim's remainder.  jobs <= 1 (after resolution) runs inline.  The
/// first exception thrown by fn is rethrown after all workers stop.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn);

/// Options every unit kind shares (SweepOptions and FleetOptions inherit
/// them).  None of them changes a result byte.
template <class Partial>
struct UnitOptions {
  int jobs = 1;  ///< 0 = hardware concurrency
  /// Non-empty: live progress heartbeat as JSONL, one flushed object per
  /// finished unit (done/total, elapsed, ETA, then the kind's fields), so
  /// a tailing monitor sees each record as the unit lands.  "-" = stderr.
  /// Written under the same lock as the per-unit callbacks, after them.
  std::string heartbeat_path;
  /// Live telemetry: one snapshot per finished unit (wall-clock `t`,
  /// completion order), `live` carrying the heartbeat's fields.
  obs::TelemetrySnapshotter* telemetry = nullptr;
  /// Checkpoint/restore (the serve daemon's hooks).  Units whose index
  /// appears here are not executed: their partial takes the executed one's
  /// place in the fold, they count as already done, and they produce no
  /// callbacks.  Indices at or past the unit count are ignored.
  const std::map<std::size_t, Partial>* restored = nullptr;
};

/// A finished unit's progress fields, in record order.  One list feeds
/// both the heartbeat record and the telemetry snapshot's `live` object.
using UnitFields = obs::TelemetrySnapshotter::Live;

/// One unit kind on top of the executor.
template <class Partial>
struct UnitPlan {
  const char* source = "";    ///< telemetry source, e.g. "sweep"
  const char* name_key = "";  ///< heartbeat key of `name`, e.g. "scenario"
  std::string name;
  std::size_t n = 0;
  /// Progress weight of unit i (done/total count weights); empty = 1.
  std::function<std::size_t(std::size_t)> weight;
  /// Runs unit i on a worker thread.  Must touch only unit i's state.
  std::function<Partial(std::size_t)> execute;
  /// Called after every *executed* unit: serialized, completion order, on
  /// the worker that ran it, right after it finished.
  std::function<void(std::size_t, const Partial&)> on_unit;
  /// Called once per restored unit before dispatch (seeds running state).
  std::function<void(const Partial&)> on_restored;
  /// The kind's progress fields for executed unit i, under the lock after
  /// on_unit.  Only called while a heartbeat or telemetry is on.
  std::function<UnitFields(std::size_t, const Partial&)> fields;
  /// Registry unit i's telemetry snapshot carries; empty or null = none.
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

/// Counts one finished unit of `weight` as done and writes its heartbeat
/// record and telemetry snapshot.
using UnitReporter = std::function<void(std::size_t weight, const UnitFields&,
                                        const obs::MetricsRegistry*)>;

/// Opens the heartbeat and telemetry of one executor run, `done` of
/// `total` weight already restored; empty when both are off.
UnitReporter open_unit_progress(const std::string& heartbeat_path,
                                obs::TelemetrySnapshotter* telemetry,
                                const char* source, const char* name_key,
                                const std::string& name, std::size_t total,
                                std::size_t done);

/// How many of `restored` a run of `n` units uses: the indices below n.
template <class Partial>
std::size_t restored_units(const std::map<std::size_t, Partial>& restored,
                           std::size_t n) {
  return static_cast<std::size_t>(
      std::distance(restored.begin(), restored.lower_bound(n)));
}

/// Executes every unit of `plan` that `opts.restored` does not supply.
template <class Partial>
UnitRun<Partial> run_units(const UnitOptions<Partial>& opts,
                           const UnitPlan<Partial>& plan) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto weight = [&](std::size_t i) -> std::size_t {
    return plan.weight ? plan.weight(i) : 1;
  };
  std::size_t total = 0;
  for (std::size_t i = 0; i < plan.n; ++i) total += weight(i);

  UnitRun<Partial> out;
  out.partials.resize(plan.n);
  std::vector<char> restored(plan.n, 0);
  std::size_t done = 0;
  if (opts.restored != nullptr) {
    for (auto it = opts.restored->begin(),
              end = opts.restored->lower_bound(plan.n);
         it != end; ++it) {
      const auto& [i, part] = *it;
      out.partials[i] = part;
      restored[i] = 1;
      done += weight(i);
      ++out.counts.restored;
      if (plan.on_restored) plan.on_restored(part);
    }
  }
  out.counts.executed = plan.n - out.counts.restored;

  const UnitReporter report =
      open_unit_progress(opts.heartbeat_path, opts.telemetry, plan.source,
                         plan.name_key, plan.name, total, done);
  std::mutex progress_m;
  parallel_for(plan.n, opts.jobs, [&](std::size_t i) {
    if (restored[i] != 0) return;
    out.partials[i] = plan.execute(i);
    if (!plan.on_unit && !report) return;
    std::lock_guard<std::mutex> lk(progress_m);
    const Partial& part = out.partials[i];
    if (plan.on_unit) plan.on_unit(i, part);
    if (report) {
      report(weight(i), plan.fields ? plan.fields(i, part) : UnitFields{},
             plan.registry ? plan.registry(i) : nullptr);
    }
  });
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace dvs::core
