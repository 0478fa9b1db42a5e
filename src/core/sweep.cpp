#include "core/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "fault/trace_transforms.hpp"
#include "hw/smartbadge.hpp"
#include "policy/optimal_oracle.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"

namespace dvs::core {

double t95_quantile(std::size_t df) {
  // Two-sided 95% (upper 97.5%) Student-t critical values, df = 1..30.
  static constexpr double kTable[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.960;
}

Aggregate aggregate(const RunningStats& s) {
  Aggregate a;
  a.n = s.count();
  if (a.n == 0) return a;
  a.mean = s.mean();
  if (a.n >= 2) {
    a.stddev = s.stddev();
    a.ci95_half =
        t95_quantile(a.n - 1) * a.stddev / std::sqrt(static_cast<double>(a.n));
  }
  return a;
}

CpuAsset build_cpu_asset(const std::string& name) {
  CpuAsset a{cpu_by_name(name), {}};
  const hw::SmartBadge badge{a.cpu};
  a.costs = dpm::smartbadge_cost_model(badge);
  return a;
}

WorkloadAsset build_workload_asset(const WorkloadSpec& w,
                                   const hw::Sa1100& cpu,
                                   std::uint64_t trace_seed,
                                   const fault::FaultSpec& faults,
                                   std::uint64_t fault_seed) {
  WorkloadAsset asset;
  // Workload fault transforms run here, once per shared asset: every
  // detector/DPM combination of the same row and fault spec sees the exact
  // same perturbed trace (the Tables-3/4 "same inputs" contract survives
  // fault injection).  One Rng walks the items in order — deterministic
  // because the item list itself is deterministic in trace_seed.
  Rng fault_rng{fault_seed};
  const auto perturb = [&](workload::FrameTrace trace) {
    if (faults.trace_faults.empty()) return trace;
    return fault::apply_faults(trace, faults.trace_faults, fault_rng);
  };
  switch (w.kind) {
    case WorkloadKind::Mp3Sequence: {
      const workload::DecoderModel dec =
          workload::reference_mp3_decoder(cpu.max_frequency());
      Rng rng{trace_seed};
      workload::FrameTrace trace = perturb(
          workload::build_mp3_trace(workload::mp3_sequence(w.mp3_labels), dec,
                                    rng));
      const Seconds end = trace.duration();
      auto items = std::make_shared<std::vector<PlaybackItem>>();
      items->push_back(PlaybackItem{
          std::move(trace), dec,
          default_nominal_arrival(workload::MediaType::Mp3Audio),
          default_nominal_service(workload::MediaType::Mp3Audio), end});
      asset.items = std::move(items);
      asset.idle = default_idle_distribution();
      break;
    }
    case WorkloadKind::MpegClip: {
      const workload::DecoderModel dec =
          workload::reference_mpeg_decoder(cpu.max_frequency());
      workload::MpegClip clip = w.mpeg_clip == "terminator2"
                                    ? workload::terminator2_clip()
                                    : workload::football_clip();
      if (w.mpeg_clip != "football" && w.mpeg_clip != "terminator2") {
        throw std::invalid_argument("WorkloadSpec: unknown mpeg clip '" +
                                    w.mpeg_clip + "'");
      }
      if (w.mpeg_limit.value() > 0.0) {
        clip.duration =
            seconds(std::min(w.mpeg_limit.value(), clip.duration.value()));
      }
      Rng rng{trace_seed};
      workload::FrameTrace trace =
          perturb(workload::build_mpeg_trace(clip, dec, rng));
      const Seconds end = trace.duration();
      auto items = std::make_shared<std::vector<PlaybackItem>>();
      items->push_back(PlaybackItem{
          std::move(trace), dec,
          default_nominal_arrival(workload::MediaType::MpegVideo),
          default_nominal_service(workload::MediaType::MpegVideo), end});
      asset.items = std::move(items);
      asset.idle = default_idle_distribution();
      break;
    }
    case WorkloadKind::Session: {
      SessionConfig cfg = w.session;
      cfg.seed = trace_seed;
      Session session = build_session(cfg, cpu);
      if (!faults.trace_faults.empty()) {
        for (PlaybackItem& item : session.items) {
          // Per-item perturbation; the item's scheduled end is preserved so
          // the session timeline (idle gaps included) stays intact.
          item.trace = perturb(std::move(item.trace));
        }
      }
      asset.items = std::make_shared<const std::vector<PlaybackItem>>(
          std::move(session.items));
      asset.idle = session.idle_model;
      asset.session_duration = session.duration;
      asset.media_time = session.media_time;
      asset.idle_time = session.idle_time;
      break;
    }
  }
  return asset;
}

RunOptions assemble_run_options(const RunAssembly& a, const CpuAsset& cpu,
                                const dpm::IdleDistributionPtr& idle,
                                const DetectorFactoryConfig& detector_cfg) {
  RunOptions opts;
  opts.detector = a.detector;
  opts.policy = a.policy;
  opts.target_delay = a.delay_target;
  opts.service_cv2 = a.service_cv2;
  opts.detector_cfg = &detector_cfg;
  opts.dpm_policy = make_dpm_policy(a.dpm, cpu.costs, idle);
  opts.seed = a.engine_seed;
  opts.cpu = &cpu.cpu;
  if (a.faults != nullptr) {
    opts.watchdog = a.faults->watchdog;
    opts.hw_faults = a.faults->hw;
  }
  return opts;
}

RunOptions assemble_run_options(const RunPoint& p, const CpuAsset& cpu,
                                const dpm::IdleDistributionPtr& idle,
                                const DetectorFactoryConfig& detector_cfg) {
  RunAssembly a;
  a.detector = p.detector;
  a.policy = p.policy;
  a.delay_target = p.delay_target;
  a.service_cv2 = p.service_cv2;
  a.dpm = p.dpm;
  a.engine_seed = p.engine_seed;
  a.faults = &p.faults;
  return assemble_run_options(a, cpu, idle, detector_cfg);
}

std::function<void(const RunPoint&, RunOptions&)> flight_dumps_in(
    const std::string& dir, const std::string& scenario) {
  return [prefix = dir + "/" + scenario + "_point"](const RunPoint& p,
                                                     RunOptions& opts) {
    opts.flight_dump_path = prefix + std::to_string(p.index) + "_rep" +
                            std::to_string(p.replicate) + ".flight.txt";
  };
}

const CellResult* SweepResult::find_cell(
    const std::function<bool(const CellResult&)>& pred) const {
  for (const CellResult& c : cells) {
    if (pred(c)) return &c;
  }
  return nullptr;
}

SweepResult SweepRunner::run(const ScenarioSpec& spec) const {
  SweepResult out;
  out.scenario = spec.name;
  out.jobs = resolve_jobs(opts_.jobs);

  std::vector<RunPoint> points = spec.expand();

  // ---- shared immutable assets, built once ------------------------------
  DetectorFactoryConfig detector_cfg = spec.detector_cfg;
  for (DetectorKind d : spec.detectors) {
    if (d == DetectorKind::ChangePoint) {
      detector_cfg.prepare();
      break;
    }
  }

  std::vector<CpuAsset> cpu_assets;
  cpu_assets.reserve(spec.cpus.size());
  for (const std::string& name : spec.cpus) {
    cpu_assets.push_back(build_cpu_asset(name));
  }

  const auto asset_key = [&](const RunPoint& p) {
    return ((p.cpu_idx * spec.workloads.size() + p.workload_idx) *
                static_cast<std::size_t>(spec.replicates) +
            static_cast<std::size_t>(p.replicate)) *
               spec.faults.size() +
           p.fault_idx;
  };
  std::unordered_map<std::size_t, WorkloadAsset> workload_assets;
  for (const RunPoint& p : points) {
    const std::size_t key = asset_key(p);
    if (workload_assets.find(key) == workload_assets.end()) {
      workload_assets.emplace(
          key, build_workload_asset(p.workload, cpu_assets[p.cpu_idx].cpu,
                                    p.trace_seed, p.faults, p.fault_seed));
    }
  }

  // ---- offline-optimal oracle, solved serially before dispatch ----------
  // One taut-string solve per (workload asset, delay target): every policy
  // and detector on the same trace divides by the same lower bound, and
  // because the solve happens here — never on a worker — the ratios are
  // byte-identical at any --jobs.
  std::map<std::pair<std::size_t, double>, double> oracle_energy;
  if (spec.oracle) {
    for (const RunPoint& p : points) {
      const auto key = std::make_pair(asset_key(p), p.delay_target.value());
      if (oracle_energy.find(key) != oracle_energy.end()) continue;
      const WorkloadAsset& asset = workload_assets.at(key.first);
      std::vector<policy::OracleJob> jobs;
      for (const PlaybackItem& item : *asset.items) {
        policy::OptimalOracle::append_jobs(item.trace, item.decoder,
                                           p.delay_target, jobs);
      }
      const policy::OptimalOracle oracle{cpu_assets[p.cpu_idx].cpu};
      oracle_energy.emplace(
          key, oracle.solve(std::move(jobs)).discrete_energy.value());
    }
  }

  // ---- execute: one unit per point --------------------------------------
  // Per-point registries: each worker writes only its own slot, and the
  // serial fold afterwards walks expansion order, so quantile collection
  // keeps the bit-identical-at-any---jobs contract.
  const bool collect = opts_.collect_quantiles || opts_.metrics != nullptr;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> point_regs;
  if (collect) {
    point_regs.resize(points.size());
    for (auto& r : point_regs) r = std::make_unique<obs::MetricsRegistry>();
  }

  UnitPlan<RestoredPoint> plan;
  plan.n = points.size();
  plan.execute = [&](std::size_t i) {
    const RunPoint& p = points[i];
    const CpuAsset& cpu = cpu_assets[p.cpu_idx];
    const WorkloadAsset& asset = workload_assets.at(asset_key(p));
    RunOptions opts = assemble_run_options(p, cpu, asset.idle, detector_cfg);
    if (collect) opts.metrics = point_regs[i].get();
    if (opts_.configure_run) opts_.configure_run(p, opts);
    RestoredPoint part;
    part.metrics = run_items(*asset.items, opts);
    if (collect) {
      if (const obs::HistogramMetric* h =
              point_regs[i]->find_histogram("frames.delay_s")) {
        part.delay_sketch = h->sketch();
      }
    }
    return part;
  };
  if (opts_.on_point || opts_.on_point_checkpoint) {
    plan.on_unit = [&](std::size_t i, const RestoredPoint& part) {
      if (opts_.on_point) opts_.on_point(PointResult{points[i], part.metrics});
      if (opts_.on_point_checkpoint) {
        opts_.on_point_checkpoint(points[i], part.metrics, part.delay_sketch);
      }
    };
  }
  RunningStats run_energy_kj, run_delay_s;  // over executed points
  plan.fields = [&](std::size_t i, const RestoredPoint& part) {
    const RunPoint& p = points[i];
    const Metrics& m = part.metrics;
    run_energy_kj.add(m.energy_kj());
    run_delay_s.add(m.mean_frame_delay.value());
    return UnitFields{{"point", static_cast<double>(p.index)},
                      {"cell", static_cast<double>(p.cell)},
                      {"replicate", static_cast<double>(p.replicate)},
                      {"energy_kj", m.energy_kj()},
                      {"mean_delay_s", m.mean_frame_delay.value()},
                      {"running_mean_energy_kj", run_energy_kj.mean()},
                      {"running_mean_delay_s", run_delay_s.mean()}};
  };
  if (collect) {
    plan.registry = [&](std::size_t i) { return point_regs[i].get(); };
  }
  UnitRun<RestoredPoint> run = run_units<RestoredPoint>(opts_, plan);
  out.units = run.counts;
  out.wall_seconds = run.wall_seconds;

  // ---- collect in expansion order, aggregate per cell -------------------
  out.points.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult pr{std::move(points[i]), std::move(run.partials[i].metrics)};
    if (spec.oracle) {
      const auto it = oracle_energy.find(
          std::make_pair(asset_key(pr.point), pr.point.delay_target.value()));
      if (it != oracle_energy.end() && it->second > 0.0) {
        pr.competitive_ratio = pr.metrics.cpu_energy().value() / it->second;
      }
    }
    out.points.push_back(std::move(pr));
  }

  std::size_t i = 0;
  while (i < out.points.size()) {
    const std::size_t cell = out.points[i].point.cell;
    CellResult c;
    c.point = out.points[i].point;
    RunningStats energy, cpu_mem, delay, max_delay, freq, switches, sleeps,
        wakeup, power, faults, recoveries, degraded, cratio;
    for (; i < out.points.size() && out.points[i].point.cell == cell; ++i) {
      const Metrics& m = out.points[i].metrics;
      // Merge the replicate's frame-delay sketch into the cell's population
      // sketch — the same place the Student-t CI reduction runs, so the
      // cells CSV reports honest population percentiles instead of a mean
      // of per-run quantiles.  A restored point's sketch merges at exactly
      // the position its fresh counterpart would have.
      c.delay_sketch.merge(run.partials[i].delay_sketch);
      energy.add(m.energy_kj());
      cpu_mem.add(m.cpu_memory_energy().value() / 1e3);
      delay.add(m.mean_frame_delay.value());
      max_delay.add(m.max_frame_delay.value());
      freq.add(m.mean_cpu_frequency.value());
      switches.add(m.cpu_switches);
      sleeps.add(m.dpm_sleeps);
      wakeup.add(m.dpm_total_wakeup_delay.value());
      power.add(m.average_power.value());
      faults.add(static_cast<double>(m.faults_injected));
      recoveries.add(m.watchdog_recoveries);
      degraded.add(m.time_in_degraded.value());
      cratio.add(out.points[i].competitive_ratio);
    }
    c.energy_kj = aggregate(energy);
    c.cpu_mem_kj = aggregate(cpu_mem);
    c.delay_s = aggregate(delay);
    c.max_delay_s = aggregate(max_delay);
    c.freq_mhz = aggregate(freq);
    c.switches = aggregate(switches);
    c.sleeps = aggregate(sleeps);
    c.wakeup_delay_s = aggregate(wakeup);
    c.power_mw = aggregate(power);
    c.faults_injected = aggregate(faults);
    c.recoveries = aggregate(recoveries);
    c.time_degraded_s = aggregate(degraded);
    c.competitive_ratio = aggregate(cratio);
    if (!c.delay_sketch.empty()) {
      c.delay_p50 = c.delay_sketch.quantile(0.5);
      c.delay_p90 = c.delay_sketch.quantile(0.9);
      c.delay_p99 = c.delay_sketch.quantile(0.99);
    }
    out.cells.push_back(std::move(c));
  }

  // ---- summary observability -------------------------------------------
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *opts_.metrics;
    // Fold every point's registry in, in expansion order: counters add,
    // histograms and their quantile sketches merge, gauges are skipped
    // (obs/metrics_registry.hpp) — the summary's frames.delay_s percentiles
    // describe the whole population across workers and replicates.
    for (const auto& pr : point_regs) reg.merge_from(*pr);
    reg.counter("sweep.points") += out.points.size();
    reg.counter("sweep.cells") += out.cells.size();
    reg.gauge("sweep.jobs") = out.jobs;
    reg.gauge("sweep.wall_seconds") = out.wall_seconds;
    auto& energy_hist = reg.histogram("sweep.point_energy_kj", 0.0, 50.0);
    auto& delay_hist = reg.histogram("sweep.point_delay_s", 0.0, 2.0);
    std::uint64_t total_faults = 0;
    std::uint64_t total_recoveries = 0;
    double total_degraded = 0.0;
    for (const PointResult& p : out.points) {
      energy_hist.add(p.metrics.energy_kj());
      delay_hist.add(p.metrics.mean_frame_delay.value());
      total_faults += p.metrics.faults_injected;
      total_recoveries +=
          static_cast<std::uint64_t>(p.metrics.watchdog_recoveries);
      total_degraded += p.metrics.time_in_degraded.value();
    }
    if (total_faults != 0 || total_recoveries != 0 || total_degraded > 0.0) {
      reg.counter("sweep.faults_injected") += total_faults;
      reg.counter("sweep.recoveries") += total_recoveries;
      reg.gauge("sweep.time_in_degraded_s") = total_degraded;
    }
  }
  return out;
}

// ---- consolidated CSV ----------------------------------------------------------

void SweepResult::write_points_csv(CsvWriter& csv) const {
  csv.write_header({"scenario", "point", "cell", "replicate", "workload",
                    "detector", "policy", "dpm", "faults", "cpu",
                    "delay_target_s", "service_cv2", "trace_seed",
                    "engine_seed", "energy_kj", "cpu_mem_kj", "delay_s",
                    "max_delay_s", "freq_mhz", "switches", "sleeps",
                    "wakeup_delay_s", "power_mw", "frames", "frames_admitted",
                    "frames_dropped", "duration_s", "faults_injected",
                    "escalations", "recoveries", "time_degraded_s",
                    "competitive_ratio"});
  for (const PointResult& p : points) {
    const Metrics& m = p.metrics;
    csv.row(scenario, p.point.index, p.point.cell, p.point.replicate,
            p.point.workload.name(), to_string(p.point.detector),
            p.point.policy, p.point.dpm.name(), p.point.faults.name,
            p.point.cpu, p.point.delay_target.value(), p.point.service_cv2,
            p.point.trace_seed, p.point.engine_seed, m.energy_kj(),
            m.cpu_memory_energy().value() / 1e3, m.mean_frame_delay.value(),
            m.max_frame_delay.value(), m.mean_cpu_frequency.value(),
            m.cpu_switches, m.dpm_sleeps, m.dpm_total_wakeup_delay.value(),
            m.average_power.value(), m.frames_decoded, m.frames_admitted,
            m.frames_dropped, m.duration.value(), m.faults_injected,
            m.watchdog_escalations, m.watchdog_recoveries,
            m.time_in_degraded.value(), p.competitive_ratio);
  }
}

void SweepResult::write_cells_csv(CsvWriter& csv) const {
  csv.write_header(
      {"scenario", "cell", "workload", "detector", "policy", "dpm", "faults",
       "cpu", "delay_target_s", "service_cv2", "replicates", "energy_kj_mean",
       "energy_kj_sd", "energy_kj_ci95", "cpu_mem_kj_mean", "cpu_mem_kj_sd",
       "cpu_mem_kj_ci95", "delay_s_mean", "delay_s_sd", "delay_s_ci95",
       "freq_mhz_mean", "freq_mhz_sd", "freq_mhz_ci95", "switches_mean",
       "sleeps_mean", "wakeup_delay_s_mean", "power_mw_mean",
       "faults_injected_mean", "recoveries_mean", "time_degraded_s_mean",
       "delay_p50", "delay_p90", "delay_p99", "competitive_ratio"});
  for (const CellResult& c : cells) {
    csv.row(scenario, c.point.cell, c.point.workload.name(),
            to_string(c.point.detector), c.point.policy, c.point.dpm.name(),
            c.point.faults.name, c.point.cpu, c.point.delay_target.value(),
            c.point.service_cv2, c.energy_kj.n, c.energy_kj.mean,
            c.energy_kj.stddev, c.energy_kj.ci95_half, c.cpu_mem_kj.mean,
            c.cpu_mem_kj.stddev, c.cpu_mem_kj.ci95_half, c.delay_s.mean,
            c.delay_s.stddev, c.delay_s.ci95_half, c.freq_mhz.mean,
            c.freq_mhz.stddev, c.freq_mhz.ci95_half, c.switches.mean,
            c.sleeps.mean, c.wakeup_delay_s.mean, c.power_mw.mean,
            c.faults_injected.mean, c.recoveries.mean,
            c.time_degraded_s.mean, c.delay_p50, c.delay_p90, c.delay_p99,
            c.competitive_ratio.mean);
  }
}

}  // namespace dvs::core
