// `dvs_sim fleet`: simulate a device population (fleet/fleet_spec.hpp
// registry) through the FleetRunner.  The fleet CSV is byte-identical at
// any --jobs level; the summary table reports population percentiles.
#include <cstdio>
#include <string>

#include "cli_common.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "fleet/fleet_runner.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "serve/job_runner.hpp"

namespace dvs::cli {

namespace {

void add_group_row(TextTable& t, const fleet::FleetGroupResult& g) {
  const double n = g.devices == 0 ? 1.0 : static_cast<double>(g.devices);
  t.add_row({g.workload, g.policy, std::to_string(g.devices),
             std::to_string(g.wave_devices),
             TextTable::num(g.energy_j / 1e3, 1),
             TextTable::num(g.sum_mean_delay_s / n, 3),
             TextTable::num(g.delay_sketch.empty()
                                ? 0.0
                                : g.delay_sketch.quantile(0.5), 3),
             TextTable::num(g.delay_sketch.empty()
                                ? 0.0
                                : g.delay_sketch.quantile(0.9), 3),
             TextTable::num(g.delay_sketch.empty()
                                ? 0.0
                                : g.delay_sketch.quantile(0.99), 3),
             TextTable::num(static_cast<double>(g.frames_dropped), 0)});
}

}  // namespace

int cmd_fleet(const CliOptions& o) {
  if (o.job.fleet.name.empty()) {
    usage("fleet needs a fleet name (try `dvs_sim list fleets`)");
  }
  validate_job(o.job);
  auto [spec, fopts] = serve::job_fleet(o.job);
  fopts.jobs = o.job.jobs;
  obs::TelemetrySnapshotter telemetry;
  if (!open_telemetry(o, telemetry)) return 2;
  fopts.on_progress = progress_snapshots(telemetry, "fleet");

  const fleet::FleetResult res = fleet::FleetRunner{fopts}.run(spec);

  std::printf("%s\n", spec.title.c_str());
  std::printf(
      "%zu devices (%zu workload x %zu policy slices), jobs=%d, %.2f s"
      " (%.0f devices/s, %.0f frames/s)\n\n",
      res.devices, spec.workloads.size(), spec.policies.size(), res.jobs,
      res.wall_seconds,
      res.wall_seconds > 0.0
          ? static_cast<double>(res.devices) / res.wall_seconds
          : 0.0,
      res.wall_seconds > 0.0
          ? static_cast<double>(res.frames_total) / res.wall_seconds
          : 0.0);

  TextTable t;
  t.set_header({"Workload", "Policy", "Devices", "Wave", "Energy (kJ)",
                "Delay (s)", "p50", "p90", "p99", "Dropped"});
  for (const fleet::FleetGroupResult& g : res.groups) add_group_row(t, g);
  add_group_row(t, res.total);
  t.print();
  std::printf("\nfleet total: %.1f kJ over %zu devices"
              " (%llu frames decoded, %llu dropped, %llu faults)\n",
              res.total.energy_j / 1e3, res.total.devices,
              static_cast<unsigned long long>(res.total.frames_decoded),
              static_cast<unsigned long long>(res.total.frames_dropped),
              static_cast<unsigned long long>(res.total.faults_injected));

  if (!o.fleet_csv.empty()) {
    CsvWriter csv{o.fleet_csv + "_fleet.csv"};
    res.write_csv(csv);
    std::printf("fleet csv -> %s_fleet.csv\n", o.fleet_csv.c_str());
  }
  if (telemetry.active()) {
    std::printf("telemetry jsonl -> %s (%zu snapshots)\n",
                o.telemetry_jsonl.c_str(), telemetry.snapshots_written());
  }
  return 0;
}

int cmd_list_fleets() {
  TextTable t;
  t.set_header({"Fleet", "Devices", "Description"});
  for (const fleet::FleetSpec& s : fleet::builtin_fleets()) {
    t.add_row({s.name, std::to_string(s.num_devices), s.description});
  }
  t.print();
  std::printf("\nrun one with: dvs_sim fleet <name> [--devices N] [--jobs N]"
              " [--fleet-csv base] [--telemetry-jsonl path]\n");
  return 0;
}

}  // namespace dvs::cli
