// `dvs_sim sweep`: run a scenario grid (core/scenario.hpp registry) through
// the parallel SweepRunner.  Results are bit-identical at any --jobs level.
#include <cstdio>

#include "cli_common.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/sweep.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "serve/job_runner.hpp"

namespace dvs::cli {

namespace {

void run_scenario(const CliOptions& o, std::FILE* hout,
                  obs::MetricsRegistry* registry,
                  obs::TelemetrySnapshotter& telemetry) {
  const core::ScenarioSpec spec = serve::job_scenario(o.job);

  core::SweepOptions sopts;
  sopts.jobs = o.job.jobs;
  sopts.metrics = registry;
  // CSV consumers get the delay percentile columns whenever they ask for a
  // CSV at all; plain table-only sweeps skip the per-engine registry cost.
  sopts.collect_quantiles = !o.sweep_csv.empty();
  sopts.on_progress = progress_snapshots(telemetry, "sweep");
  if (!o.flight_dump_dir.empty()) {
    // Arm a per-point auto-dump so anomalies anywhere in the grid leave a
    // post-mortem artifact (CI uploads this directory on failure).
    sopts.configure_run = core::flight_dumps_in(o.flight_dump_dir, spec.name);
  }
  const core::SweepResult res = core::SweepRunner{sopts}.run(spec);

  std::fprintf(hout, "%s\nreproduces: %s\n", spec.title.c_str(),
               spec.paper_ref.c_str());
  std::fprintf(hout, "%zu points (%zu cells x %d replicates), jobs=%d, %.2f s\n\n",
               res.points.size(), res.cells.size(), spec.replicates, res.jobs,
               res.wall_seconds);

  const bool any_faults = spec.faults.size() > 1 ||
                          (spec.faults.size() == 1 && !spec.faults[0].none());
  TextTable t;
  if (any_faults) {
    t.set_header({"Workload", "Detector", "DPM", "Faults", "d (s)",
                  "Energy (kJ)", "+-95%", "Delay (s)", "Power (mW)",
                  "Recov", "Degr (s)"});
    for (const core::CellResult& c : res.cells) {
      t.add_row({c.point.workload.name(),
                 std::string(to_string(c.point.detector)), c.point.dpm.name(),
                 c.point.faults.name,
                 TextTable::num(c.point.delay_target.value(), 2),
                 TextTable::num(c.energy_kj.mean, 3),
                 TextTable::num(c.energy_kj.ci95_half, 3),
                 TextTable::num(c.delay_s.mean, 3),
                 TextTable::num(c.power_mw.mean, 0),
                 TextTable::num(c.recoveries.mean, 1),
                 TextTable::num(c.time_degraded_s.mean, 1)});
    }
  } else if (spec.policies.size() > 1 || spec.oracle) {
    // Policy-comparison view: the governor column replaces the DPM/CPU
    // detail, and the oracle's competitive ratio closes the row.
    t.set_header({"Workload", "Policy", "Detector", "d (s)", "Energy (kJ)",
                  "+-95%", "Delay (s)", "Power (mW)", "CR"});
    for (const core::CellResult& c : res.cells) {
      t.add_row({c.point.workload.name(), c.point.policy,
                 std::string(to_string(c.point.detector)),
                 TextTable::num(c.point.delay_target.value(), 2),
                 TextTable::num(c.energy_kj.mean, 3),
                 TextTable::num(c.energy_kj.ci95_half, 3),
                 TextTable::num(c.delay_s.mean, 3),
                 TextTable::num(c.power_mw.mean, 0),
                 TextTable::num(c.competitive_ratio.mean, 3)});
    }
  } else {
    t.set_header({"Workload", "Detector", "DPM", "CPU", "d (s)", "Energy (kJ)",
                  "+-95%", "Delay (s)", "Power (mW)", "Sleeps"});
    for (const core::CellResult& c : res.cells) {
      t.add_row({c.point.workload.name(),
                 std::string(to_string(c.point.detector)), c.point.dpm.name(),
                 c.point.cpu, TextTable::num(c.point.delay_target.value(), 2),
                 TextTable::num(c.energy_kj.mean, 3),
                 TextTable::num(c.energy_kj.ci95_half, 3),
                 TextTable::num(c.delay_s.mean, 3),
                 TextTable::num(c.power_mw.mean, 0),
                 TextTable::num(c.sleeps.mean, 0)});
    }
  }
  std::fputs(t.str().c_str(), hout);

  if (!o.sweep_csv.empty()) {
    CsvWriter cells{o.sweep_csv + "_cells.csv"};
    res.write_cells_csv(cells);
    CsvWriter points{o.sweep_csv + "_points.csv"};
    res.write_points_csv(points);
    std::fprintf(hout, "\nsweep csv -> %s_cells.csv, %s_points.csv\n",
                 o.sweep_csv.c_str(), o.sweep_csv.c_str());
  }
}

}  // namespace

int cmd_sweep(const CliOptions& o) {
  if (o.job.sweep.scenario.empty()) usage("sweep needs a scenario name");
  validate_job(o.job);

  // A machine document on stdout moves the human-readable report to stderr
  // so the document stays parseable; two documents cannot share stdout.
  if (o.metrics_json == "-" && o.metrics_openmetrics == "-") {
    usage("--metrics-json - and --metrics-openmetrics - both target stdout;"
          " write at least one to a file");
  }
  const bool json_to_stdout =
      o.metrics_json == "-" || o.metrics_openmetrics == "-";
  std::FILE* hout = json_to_stdout ? stderr : stdout;

  // One summary registry feeds both the metrics JSON and the OpenMetrics
  // exposition; per-point registries are folded into it by the runner.
  const bool want_metrics =
      !o.metrics_json.empty() || !o.metrics_openmetrics.empty();
  obs::MetricsRegistry registry;
  obs::TelemetrySnapshotter telemetry;
  if (!open_telemetry(o, telemetry)) return 2;
  run_scenario(o, hout, want_metrics ? &registry : nullptr, telemetry);
  if (!write_document(o.metrics_json, "metrics json", hout,
                      [&](std::ostream& os) { registry.write_json(os); }) ||
      !write_document(o.metrics_openmetrics, "openmetrics", hout,
                      [&](std::ostream& os) {
                        obs::write_openmetrics(registry, os);
                      })) {
    return 1;
  }
  if (telemetry.active()) {
    std::fprintf(hout, "telemetry jsonl -> %s (%zu snapshots)\n",
                 o.telemetry_jsonl.c_str(), telemetry.snapshots_written());
  }
  warn_out_of_range(registry);
  return 0;
}

}  // namespace dvs::cli
