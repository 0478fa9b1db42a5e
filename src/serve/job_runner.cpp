#include "serve/job_runner.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/csv.hpp"
#include "serve/checkpoint.hpp"
#include "serve/status.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

/// One job's unit bookkeeping, the same for every kind: checkpoint restore
/// and durability, and the summary's unit counts.
struct JobUnits {
  /// Sweep and fleet jobs checkpoint when `paths` names a file; a run job
  /// is a single unit and never does.
  JobUnits(const JobSpec& spec, const JobPaths& paths, std::size_t total)
      : spec(spec), paths(paths), total(total) {
    const std::string& path = paths.checkpoint_path;
    if (spec.kind == JobKind::Run || path.empty()) return;
    restored = load_checkpoint(path);
    if (!restored.empty() && restored.kind != to_string(spec.kind)) {
      throw std::runtime_error("checkpoint " + path + " is for a " +
                               restored.kind + " job, not " +
                               to_string(spec.kind));
    }
    writer.emplace(path, spec.id, to_string(spec.kind), spec.checkpoint_every);
  }

  /// Completes `summary` with the unit counts, writes it and returns it.
  JobSummary finish(const core::UnitCounts& units, double elapsed_s,
                    JobSummary summary) const {
    summary.job_id = spec.id;
    summary.kind = to_string(spec.kind);
    summary.units_total = total;
    summary.executed = units.executed;
    summary.restored = units.restored;
    summary.elapsed_s = elapsed_s;
    write_job_summary(summary, paths.output_dir + "/job_summary.json");
    return summary;
  }

  const JobSpec& spec;
  const JobPaths& paths;
  std::size_t total;
  CheckpointData restored;
  std::optional<CheckpointWriter> writer;
};

JobSummary run_sweep_job(const JobSpec& spec, const JobPaths& paths,
                         int jobs) {
  const core::ScenarioSpec scenario = job_scenario(spec);
  JobUnits units(spec, paths, scenario.num_points());
  core::SweepOptions sopts;
  sopts.jobs = jobs;
  sopts.restored = &units.restored.points;
  sopts.on_progress = paths.on_progress;
  // Always collect quantiles: the cells CSV must carry the same percentile
  // columns whether the job ran straight through or resumed from a
  // checkpoint, and restored sketches can only merge into collected ones.
  sopts.collect_quantiles = true;
  // Anomaly auto-dumps land with the job's other artifacts, not the
  // daemon's CWD; the point/replicate in the name is the trace context
  // back to the checkpoint record.
  const std::string flight_dir = paths.output_dir + "/flight";
  fs::create_directories(flight_dir);
  sopts.configure_run = core::flight_dumps_in(flight_dir, scenario.name);
  sopts.on_point_checkpoint = [&units](const core::RunPoint& p,
                                       const core::Metrics& m,
                                       const obs::QuantileSketch& sketch) {
    if (units.writer) units.writer->append_point(p.index, m, sketch);
  };

  const core::SweepResult res = core::SweepRunner{sopts}.run(scenario);
  if (units.writer) units.writer->flush();

  CsvWriter cells{paths.output_dir + "/sweep_cells.csv"};
  res.write_cells_csv(cells);
  CsvWriter points{paths.output_dir + "/sweep_points.csv"};
  res.write_points_csv(points);

  JobSummary summary;
  for (const core::PointResult& p : res.points) {
    summary.frames_decoded += p.metrics.frames_decoded;
    summary.frames_dropped += p.metrics.frames_dropped;
    summary.energy_j += p.metrics.total_energy.value();
    summary.frame_delay_sum_s += p.metrics.mean_frame_delay.value() *
                                 static_cast<double>(p.metrics.frames_decoded);
  }
  // Cell order — the same pinned fold the cells CSV uses, so the summary
  // sketch is byte-stable at any --jobs and across restarts.
  for (const core::CellResult& c : res.cells) {
    summary.frame_delay_sketch.merge(c.delay_sketch);
  }
  return units.finish(res.units, res.wall_seconds, std::move(summary));
}

JobSummary run_fleet_job(const JobSpec& spec, const JobPaths& paths,
                         int jobs) {
  auto [fspec, fopts] = job_fleet(spec);
  JobUnits units(spec, paths,
                 (fspec.num_devices + fopts.shard_size - 1) / fopts.shard_size);
  fopts.jobs = jobs;
  fopts.restored = &units.restored.shards;
  fopts.on_progress = paths.on_progress;
  fopts.on_shard = [&units](std::size_t shard,
                            const dvs::fleet::FleetShardPartial& part) {
    if (units.writer) units.writer->append_shard(shard, part);
  };

  const dvs::fleet::FleetResult res = dvs::fleet::FleetRunner{fopts}.run(fspec);
  if (units.writer) units.writer->flush();

  CsvWriter csv{paths.output_dir + "/fleet.csv"};
  res.write_csv(csv);

  JobSummary summary;
  summary.frames_decoded = res.total.frames_decoded;
  summary.frames_dropped = res.total.frames_dropped;
  summary.energy_j = res.total.energy_j;
  // Over-devices distribution (one sample per device's mean delay) — the
  // fleet-wide fold, already pinned in shard order by the runner.
  summary.device_delay_sketch = res.total.delay_sketch;
  summary.device_delay_sum_s = res.total.sum_mean_delay_s;
  return units.finish(res.units, res.wall_seconds, std::move(summary));
}

/// A run job is one unit: the single engine run is inherently serial.
JobSummary run_run_job(const JobSpec& spec, const JobPaths& paths) {
  const JobRun resolved{spec};
  const core::WorkloadAsset asset = resolved.build_asset();
  core::RunOptions opts = resolved.options(asset.idle);
  // Observability attachments: a private registry harvests the frame-delay
  // sketch for job_summary.json, and the flight recorder's auto-dump is
  // routed next to the job's other artifacts.  Neither feeds the results.
  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const std::string flight_dir = paths.output_dir + "/flight";
  fs::create_directories(flight_dir);
  opts.flight_dump_path = flight_dir + "/run.flight.txt";

  JobUnits units(spec, paths, 1);
  core::UnitPlan<core::Metrics> plan;
  plan.n = 1;
  plan.execute = [&](std::size_t) {
    return core::run_items(*asset.items, opts);
  };
  core::UnitOptions<core::Metrics> uopts;
  uopts.on_progress = paths.on_progress;
  const core::UnitRun<core::Metrics> run = core::run_units(uopts, plan);
  const core::Metrics& m = run.partials.front();

  // The run's machine artifact: a one-row CSV with the table-level numbers
  // (%.17g comes only from checkpoints; this is a report, not a fold input).
  CsvWriter csv{paths.output_dir + "/run.csv"};
  csv.write_row(std::vector<std::string>{
      "duration_s", "energy_j", "avg_power_mw", "frames_decoded",
      "frames_dropped", "mean_delay_s", "max_delay_s", "cpu_switches",
      "dpm_sleeps"});
  csv.write_row(std::vector<double>{
      m.duration.value(), m.total_energy.value(), m.average_power.value(),
      static_cast<double>(m.frames_decoded),
      static_cast<double>(m.frames_dropped), m.mean_frame_delay.value(),
      m.max_frame_delay.value(), static_cast<double>(m.cpu_switches),
      static_cast<double>(m.dpm_sleeps)});

  JobSummary summary;
  summary.frames_decoded = m.frames_decoded;
  summary.frames_dropped = m.frames_dropped;
  summary.energy_j = m.total_energy.value();
  if (const obs::HistogramMetric* h = reg.find_histogram("frames.delay_s")) {
    summary.frame_delay_sketch = h->sketch();
    summary.frame_delay_sum_s = h->sum();
  }
  return units.finish(run.counts, run.wall_seconds, std::move(summary));
}

}  // namespace

core::ScenarioSpec job_scenario(const JobSpec& spec) {
  core::ScenarioSpec scenario = *spec.spec_scenario();
  if (spec.sweep.replicates > 0) scenario.replicates = spec.sweep.replicates;
  if (spec.seed_set) scenario.base_seed = spec.seed;
  if (!spec.sweep.faults.empty()) {
    scenario.faults = fault::parse_fault_list(spec.sweep.faults);
  }
  if (!spec.sweep.policy.empty()) scenario.policies = {spec.sweep.policy};
  return scenario;
}

JobFleet job_fleet(const JobSpec& spec) {
  JobFleet f{*spec.spec_fleet(), {}};
  if (spec.fleet.devices > 0) f.spec.num_devices = spec.fleet.devices;
  if (spec.seed_set) f.spec.fleet_seed = spec.seed;
  if (spec.fleet.shard_size > 0) f.options.shard_size = spec.fleet.shard_size;
  return f;
}

JobRun::JobRun(const JobSpec& spec)
    : seed(spec.seed_set ? spec.seed : 1),
      fault_seed(core::mix_seed(seed, 0xfa)),
      cpu(core::build_cpu_asset("sa1100")) {
  const RunJob& r = spec.run;
  if (r.session) {
    core::SessionConfig scfg;
    scfg.cycles = r.cycles;
    if (r.seconds > 0.0) scfg.mpeg_segment = seconds(r.seconds);
    workload = core::WorkloadSpec::usage_session(std::move(scfg));
  } else if (r.media == "mp3") {
    workload = core::WorkloadSpec::mp3(r.sequence);
  } else {
    workload = core::WorkloadSpec::mpeg(r.clip, seconds(r.seconds));
  }
  if (!r.faults.empty()) {
    faults = fault::combine_faults(fault::parse_fault_list(r.faults));
    assembly.faults = &faults;
  }
  assembly.detector = resolve_detector(r.detector);
  if (assembly.detector == core::DetectorKind::ChangePoint) {
    detector_cfg.prepare();
  }
  if (!r.policy.empty()) assembly.policy = r.policy;
  assembly.delay_target =
      r.delay > 0.0 ? seconds(r.delay) : workload.default_delay_target();
  assembly.service_cv2 = r.cv2;
  assembly.dpm.kind = *core::dpm_kind_from_string(r.dpm);
  assembly.dpm.max_delay = seconds(r.dpm_delay);
  assembly.engine_seed = seed;
}

core::WorkloadAsset JobRun::build_asset() const {
  return core::build_workload_asset(workload, cpu.cpu, seed, faults,
                                    fault_seed);
}

core::RunOptions JobRun::options(const dpm::IdleDistributionPtr& idle) const {
  return core::assemble_run_options(assembly, cpu, idle, detector_cfg);
}

JobSummary run_job(const JobSpec& spec, const JobPaths& paths,
                   int default_jobs) {
  spec.validate();
  fs::create_directories(paths.output_dir);
  const int jobs = spec.jobs > 0 ? spec.jobs : default_jobs;

  JobSummary out;
  switch (spec.kind) {
    case JobKind::Run: out = run_run_job(spec, paths); break;
    case JobKind::Sweep: out = run_sweep_job(spec, paths, jobs); break;
    case JobKind::Fleet: out = run_fleet_job(spec, paths, jobs); break;
  }
  // Success: the checkpoint has served its purpose; a finished job must
  // never be "resumed".
  if (!paths.checkpoint_path.empty()) {
    std::error_code ec;
    fs::remove(paths.checkpoint_path, ec);
  }
  return out;
}

}  // namespace dvs::serve
