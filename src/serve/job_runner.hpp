// JobRunner: executes one validated JobSpec to completion inside the
// daemon's process.  The run/sweep/fleet subcommands parse their flags
// into the same JobSpec and resolve it with the same job_scenario /
// job_fleet / JobRun below, so a job and its CLI spelling build the same
// engine inputs; the runner adds the two things only a daemon needs:
// checkpoint emission while running and checkpoint restore on entry.
//
// Every kind is units of the ordered-unit executor (core/units.hpp): sweep
// points, fleet shards, and a run job as one unit.  One code path wires
// any kind's checkpoint writer and restored units; the executor's own
// progress records reach the daemon through on_progress unchanged, and
// the executed/restored counts in the returned JobSummary are the
// executor's own, so stray or out-of-range checkpoint records can never
// skew them.
//
// Process-wide warm state is deliberate: the change-point threshold table
// (detect::shared_threshold_table) and TISMDP solutions (dpm solve cache)
// are keyed caches that persist across run_job calls, so the second job of
// a back-to-back pair recomputes neither (asserted by tests/serve).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "fault/fault_spec.hpp"
#include "fleet/fleet_runner.hpp"
#include "serve/job_spec.hpp"
#include "serve/status.hpp"

namespace dvs::serve {

/// A sweep job's scenario: the registry entry with the job's replicates,
/// seed, faults and policy overrides applied.
core::ScenarioSpec job_scenario(const JobSpec& spec);

/// A fleet job's population, with the job's devices and seed overrides,
/// and the runner options its shard size sets (the caller adds the worker
/// count and the progress sinks).
struct JobFleet {
  dvs::fleet::FleetSpec spec;
  dvs::fleet::FleetOptions options;
};
JobFleet job_fleet(const JobSpec& spec);

/// A run job resolved into engine inputs: the one RunJob -> WorkloadSpec /
/// FaultSpec / RunAssembly translation.  `assembly.faults` points at
/// `faults`, and options() aliases `cpu` and `detector_cfg`, so a JobRun
/// stays where it was built.
struct JobRun {
  explicit JobRun(const JobSpec& spec);
  JobRun(const JobRun&) = delete;
  JobRun& operator=(const JobRun&) = delete;

  /// The generated items, with the trace faults applied.
  [[nodiscard]] core::WorkloadAsset build_asset() const;
  /// Engine options for a workload with idle model `idle`.
  [[nodiscard]] core::RunOptions options(
      const dpm::IdleDistributionPtr& idle) const;

  std::uint64_t seed;        ///< the job's seed; 1 when it sets none
  std::uint64_t fault_seed;  ///< mix_seed(seed, 0xfa)
  core::CpuAsset cpu;
  core::WorkloadSpec workload;
  /// Every named fault spec combined: all workload perturbations apply in
  /// order; the first spec supplies the watchdog and hardware plan.
  fault::FaultSpec faults;
  core::DetectorFactoryConfig detector_cfg;  ///< prepared for change-point
  core::RunAssembly assembly;  ///< delay target defaults from the workload
};

struct JobPaths {
  /// Directory that receives every artifact of this job (CSVs, flight
  /// dumps, job_summary.json).  Created if missing.
  std::string output_dir;
  /// Checkpoint JSONL path; empty disables checkpoint/restore (run-kind
  /// jobs never checkpoint — a single engine run is the atomic unit).
  std::string checkpoint_path;
  /// The executor's progress record per executed unit (completion order,
  /// under its progress lock, after the unit's checkpoint record) — the
  /// daemon's live status.json feed.  May be empty.
  std::function<void(const core::UnitProgress&)> on_progress;
};

/// Runs the job start to finish; returns the summary it wrote to
/// job_summary.json, which folds to the same bytes as the file read back.
/// Throws on invalid specs and I/O failures (the daemon maps exceptions to
/// failed/).  `default_jobs` supplies the worker-thread count when the
/// spec's own `jobs` is 0.
JobSummary run_job(const JobSpec& spec, const JobPaths& paths,
                   int default_jobs);

}  // namespace dvs::serve
