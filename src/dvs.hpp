// Public umbrella header for the DVS/DPM engine.
//
// External artifacts — examples, benches, downstream tools — include only
// this header.  The supported API is what the shipped binaries use: the
// dvs-sim CLI, the bench_* programs, the examples and the repo benchmark's
// driver.  A member that none of them reaches is deleted rather than kept
// "for users" (scripts/link_scan.py guards whole files; docs/ARCHITECTURE.md
// lists the few test oracles kept on purpose).  The main entry points:
//
//   * single runs:      core::RunOptions, core::run_single_trace,
//                       core::run_items, core::Metrics
//   * experiment grids: core::ScenarioSpec, core::SweepRunner,
//                       core::builtin_scenarios / find_scenario
//   * fleet populations: fleet::FleetSpec, fleet::FleetRunner,
//                       fleet::builtin_fleets / find_fleet
//   * fault injection:  fault::FaultSpec, fault::builtin_faults
//   * shared assets:    detect::shared_threshold_table,
//                       dpm::cached_tismdp_mix (process-wide caches)
//   * observability:    obs::MetricsRegistry, obs::TraceRecorder, sinks,
//                       telemetry (obs::QuantileSketch,
//                       obs::TelemetrySnapshotter, obs::SpanProfiler,
//                       obs::write_openmetrics)
//   * workloads:        workload clip tables, trace builders, decoders
//   * hardware models:  hw::SmartBadge, hw::Sa1100, battery / DC-DC
//   * building blocks:  sim::Simulator, the queue models, detectors, the
//                       DPM policies and TISMDP plan search, common utilities
//
// Internal headers under src/ may move, split, or change freely between
// releases.
#pragma once

// Common utilities (units, RNG, stats, fitting, CSV/table output).
#include "common/csv.hpp"
#include "common/fit.hpp"
#include "common/piecewise_linear.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

// Simulation kernel.
#include "sim/simulator.hpp"

// Observability.
#include "obs/attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "obs/telemetry/quantile_sketch.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "obs/telemetry/span_profiler.hpp"
#include "obs/trace_recorder.hpp"

// Hardware models.
#include "hw/battery.hpp"
#include "hw/cpu_catalog.hpp"
#include "hw/dcdc.hpp"
#include "hw/sa1100.hpp"
#include "hw/smartbadge.hpp"
#include "hw/smartbadge_data.hpp"

// Workloads.
#include "workload/arrival.hpp"
#include "workload/clips.hpp"
#include "workload/decoder_model.hpp"
#include "workload/media.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"
#include "workload/work_model.hpp"

// Queueing models.
#include "queue/frame_buffer.hpp"
#include "queue/mg1.hpp"
#include "queue/mm1.hpp"

// Rate detectors.
#include "detect/change_point.hpp"
#include "detect/ema.hpp"
#include "detect/ideal.hpp"
#include "detect/sliding_window.hpp"
#include "detect/table_cache.hpp"
#include "detect/threshold_table.hpp"

// DVS policy layer.
#include "policy/frequency_policy.hpp"
#include "policy/governor.hpp"
#include "policy/governor_base.hpp"
#include "policy/governor_factory.hpp"
#include "policy/optimal_oracle.hpp"
#include "policy/qdpm_governor.hpp"
#include "policy/watchdog.hpp"

// DPM policy layer.
#include "dpm/adaptive.hpp"
#include "dpm/cost_model.hpp"
#include "dpm/idle_model.hpp"
#include "dpm/policy.hpp"
#include "dpm/power_manager.hpp"
#include "dpm/solve_cache.hpp"

// Fault injection.
#include "fault/fault_spec.hpp"
#include "fault/hw_faults.hpp"
#include "fault/trace_transforms.hpp"

// Engine, experiments, scenarios, sweeps.
#include "core/detectors.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

// Fleet-scale device populations.
#include "fleet/fleet_runner.hpp"
#include "fleet/fleet_spec.hpp"
