// SweepRunner: a ScenarioSpec's RunPoints as units of the ordered-unit
// executor (core/units.hpp), with results bit-identical to serial
// execution.
//
// Determinism contract: every point is an independent simulation — its own
// Engine, its own RNG substreams (RunPoint::trace_seed / engine_seed), a
// fresh DPM policy instance — and its partial (metrics + frame-delay
// sketch) lands in its own slot, so the execution schedule cannot
// influence any number.  Shared state is built once before dispatch and is
// immutable during the run: the prepared change-point threshold table
// (DetectorFactoryConfig::prepare) and the per-(cpu, workload, replicate,
// fault) frame traces / sessions (workload fault transforms run once at
// asset-build time from RunPoint::fault_seed) that some executed point
// plays — or every one, when the oracle must solve restored points too.
// An asset is a pure function of its seeds, so which points ask for it
// changes no byte.  The runner keeps only
// what is sweep-specific: asset building, executing one point, its
// progress fields, and the per-cell fold over the partials in expansion
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "core/units.hpp"
#include "obs/metrics_registry.hpp"

namespace dvs::core {

/// Replicate aggregate for one metric column: mean, sample stddev, and the
/// half-width of the Student-t 95% confidence interval (0 when n < 2).
struct Aggregate {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95_half = 0.0;
};

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom (normal
/// approximation past df = 30) — the CI multiplier used by aggregate().
double t95_quantile(std::size_t df);

Aggregate aggregate(const RunningStats& s);

/// Per-CPU shared asset: the resolved part and its DPM cost model.  Built
/// once before dispatch; immutable while workers run.
struct CpuAsset {
  hw::Sa1100 cpu;
  dpm::DpmCostModel costs;
};

/// Resolves a CPU catalog name into a CpuAsset (throws on unknown names,
/// same contract as cpu_by_name).
CpuAsset build_cpu_asset(const std::string& name);

/// Per-(cpu, workload, trace seed, fault) shared asset, built once before
/// dispatch for the units that play it and read-only afterwards.  The
/// item list is behind a shared_ptr so thousands of concurrent runs (sweep
/// points, fleet devices) can play the same prepared trace without copying
/// it.
struct WorkloadAsset {
  std::shared_ptr<const std::vector<PlaybackItem>> items;
  dpm::IdleDistributionPtr idle;
  /// Session workloads: the timeline's length and its media/idle split
  /// (zero for single-trace workloads).
  Seconds session_duration{0.0};
  Seconds media_time{0.0};
  Seconds idle_time{0.0};
};

/// Builds the prepared trace(s) + idle model for one workload row.  Fault
/// transforms run here, once per asset: every consumer of the same
/// (trace_seed, fault_seed) pair sees the exact same perturbed trace — the
/// Tables-3/4 "same inputs" contract survives fault injection, and the
/// fleet runner's shared-asset reuse inherits it.
WorkloadAsset build_workload_asset(const WorkloadSpec& w,
                                   const hw::Sa1100& cpu,
                                   std::uint64_t trace_seed,
                                   const fault::FaultSpec& faults,
                                   std::uint64_t fault_seed);

/// Scenario-level knobs that every execution surface (cmd_run, the sweep
/// pool, the fleet shards, serve jobs) resolves into RunOptions the same
/// way — the single construction path shared by all layers, so call sites
/// never hand-assemble RunOptions field-by-field again.
struct RunAssembly {
  DetectorKind detector = DetectorKind::ChangePoint;
  std::string policy = "paper";
  Seconds delay_target{0.1};
  double service_cv2 = 1.0;
  DpmSpec dpm{};
  std::uint64_t engine_seed = 1;
  /// Null = fault-free run; non-null supplies the watchdog + hardware plan
  /// (workload-side trace transforms are applied at asset-build time).
  const fault::FaultSpec* faults = nullptr;
};

/// Resolves scenario-level parameters + shared assets into engine-ready
/// RunOptions: builds the DPM policy against this CPU's cost model and the
/// workload's idle distribution, wires the shared detector configuration
/// and CPU model by pointer, and copies the fault plan when present.  The
/// returned options alias `cpu` and `detector_cfg` — both must outlive the
/// run (they always do: shared assets are built before dispatch).
RunOptions assemble_run_options(const RunAssembly& a, const CpuAsset& cpu,
                                const dpm::IdleDistributionPtr& idle,
                                const DetectorFactoryConfig& detector_cfg);

/// RunPoint convenience: a sweep point's expansion coordinates are already
/// a RunAssembly.
RunOptions assemble_run_options(const RunPoint& p, const CpuAsset& cpu,
                                const dpm::IdleDistributionPtr& idle,
                                const DetectorFactoryConfig& detector_cfg);

/// One point's fold partial: what an executed point produces and what a
/// checkpoint record restores in place of executing it.
struct RestoredPoint {
  Metrics metrics;
  /// The point's frames.delay_s sketch; empty when quantiles were not
  /// collected.
  obs::QuantileSketch delay_sketch;
};

/// One executed point, in expansion order.
struct PointResult {
  RunPoint point;
  Metrics metrics;
  /// Measured CPU energy over the offline-optimal oracle's discrete-step
  /// lower bound for this point's trace and delay target (>= 1 for any
  /// policy that honors the target; 0 when ScenarioSpec::oracle is off).
  double competitive_ratio = 0.0;
};

/// One grid cell with its replicates reduced.
struct CellResult {
  RunPoint point;  ///< replicate-0 point: the cell's coordinates
  Aggregate energy_kj;
  Aggregate cpu_mem_kj;
  Aggregate delay_s;
  Aggregate max_delay_s;
  Aggregate freq_mhz;
  Aggregate switches;
  Aggregate sleeps;
  Aggregate wakeup_delay_s;
  Aggregate power_mw;
  // Fault-injection / degradation aggregates (all-zero on fault-free cells).
  Aggregate faults_injected;
  Aggregate recoveries;
  Aggregate time_degraded_s;
  /// Competitive-ratio aggregate (all-zero unless ScenarioSpec::oracle).
  Aggregate competitive_ratio;
  /// Population frame-delay distribution: the per-point quantile sketches
  /// of every replicate merged in expansion order (empty unless quantile
  /// collection ran — see SweepOptions::collect_quantiles).  The p50/p90/
  /// p99 fields are the merged sketch's quantiles, 0 when not collected.
  obs::QuantileSketch delay_sketch;
  double delay_p50 = 0.0;
  double delay_p90 = 0.0;
  double delay_p99 = 0.0;
};

struct SweepResult {
  std::string scenario;
  int jobs = 1;
  double wall_seconds = 0.0;
  std::vector<PointResult> points;  ///< expansion order
  std::vector<CellResult> cells;    ///< cell order
  UnitCounts units;                 ///< points executed vs restored

  /// Consolidated CSV emission — the one writer all sweeps share.
  void write_points_csv(CsvWriter& csv) const;
  void write_cells_csv(CsvWriter& csv) const;
};

/// Sweep options on top of the shared UnitOptions (jobs, restored,
/// on_progress).  Progress records count points and carry point, cell,
/// replicate, the point's energy_kj/mean_delay_s, the running means over
/// executed points and, when quantiles are collected, the point's
/// registry.
struct SweepOptions : UnitOptions<RestoredPoint> {
  /// Summary sink, fed serially after the run (the registry itself is not
  /// thread-safe, so per-run engine hooks stay off during a sweep).  When
  /// set, every point gets a private registry on its worker and the
  /// per-point registries are folded in serially, in expansion order
  /// (counters add, histograms + sketches merge, gauges skipped) — so the
  /// summary sees the population frame-delay distribution, not just the
  /// sweep.* roll-ups, and the result is byte-identical at any --jobs.
  obs::MetricsRegistry* metrics = nullptr;
  /// Collect per-point quantile sketches (CellResult::delay_sketch and the
  /// cells-CSV delay percentile columns) even without a summary registry.
  /// Implied by `metrics`.  Off by default: it attaches a metrics registry
  /// to every engine run, which costs histogram updates on the hot path.
  bool collect_quantiles = false;
  /// Progress callback for executed points: serialized, completion (not
  /// expansion) order, on the worker right after the point finished.
  std::function<void(const PointResult&)> on_point;
  /// Per-point RunOptions hook, called on the worker thread after the
  /// standard fields are filled and before the engine runs.  Must be
  /// thread-safe (points run concurrently); must not change fields that
  /// feed the simulation result if bit-identity across --jobs matters —
  /// it exists for observability attachments (ledgers, flight-dump paths).
  std::function<void(const RunPoint&, RunOptions&)> configure_run;
  /// Called right after on_point, under the same lock, with the executed
  /// point's metrics and frame-delay sketch (empty unless quantile
  /// collection is on) — everything a checkpoint record needs to make the
  /// point restorable.  A restored point's sketch re-enters the cell fold
  /// where a fresh one would; the sketch text round-trips bit-exactly, so
  /// a resumed sweep's CSVs are byte-identical to an uninterrupted one.
  std::function<void(const RunPoint&, const Metrics&,
                     const obs::QuantileSketch&)>
      on_point_checkpoint;
};

/// A SweepOptions::configure_run that arms each point's flight-recorder
/// auto-dump at <dir>/<scenario>_point<i>_rep<r>.flight.txt: unique per
/// point, observability only, so results stay bit-identical at any --jobs.
std::function<void(const RunPoint&, RunOptions&)> flight_dumps_in(
    const std::string& dir, const std::string& scenario);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {}) : opts_(std::move(opts)) {}

  /// Expands, prepares the shared assets its executed points play,
  /// executes every unrestored point, aggregates.
  SweepResult run(const ScenarioSpec& spec) const;

 private:
  SweepOptions opts_;
};

}  // namespace dvs::core
