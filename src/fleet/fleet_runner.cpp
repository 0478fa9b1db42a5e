#include "fleet/fleet_runner.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "core/sweep.hpp"
#include "fault/fault_spec.hpp"

namespace dvs::fleet {

void FleetGroupResult::fold(const FleetGroupResult& other) {
  devices += other.devices;
  wave_devices += other.wave_devices;
  energy_j += other.energy_j;
  frames_decoded += other.frames_decoded;
  frames_dropped += other.frames_dropped;
  faults_injected += other.faults_injected;
  sum_mean_delay_s += other.sum_mean_delay_s;
  delay_sketch.merge(other.delay_sketch);
  energy_sketch.merge(other.energy_sketch);
  dropped_sketch.merge(other.dropped_sketch);
}

namespace {

double quantile_or_zero(const obs::QuantileSketch& s, double q) {
  return s.empty() ? 0.0 : s.quantile(q);
}

void write_group_row(CsvWriter& csv, const FleetGroupResult& g) {
  const double n = g.devices == 0 ? 1.0 : static_cast<double>(g.devices);
  csv.row(g.workload, g.policy, g.devices, g.wave_devices, g.energy_j,
          g.energy_j / n, g.frames_decoded, g.frames_dropped,
          g.faults_injected, g.sum_mean_delay_s / n,
          quantile_or_zero(g.delay_sketch, 0.5),
          quantile_or_zero(g.delay_sketch, 0.9),
          quantile_or_zero(g.delay_sketch, 0.99),
          quantile_or_zero(g.energy_sketch, 0.5),
          quantile_or_zero(g.energy_sketch, 0.99),
          quantile_or_zero(g.dropped_sketch, 0.99));
}

}  // namespace

void FleetResult::write_csv(CsvWriter& csv) const {
  csv.write_header({"workload", "policy", "devices", "wave_devices",
                    "energy_j", "joules_per_device", "frames_decoded",
                    "frames_dropped", "faults_injected", "mean_delay_s",
                    "delay_p50_s", "delay_p90_s", "delay_p99_s",
                    "energy_p50_j", "energy_p99_j", "dropped_p99"});
  for (const FleetGroupResult& g : groups) write_group_row(csv, g);
  write_group_row(csv, total);
}

FleetResult FleetRunner::run(const FleetSpec& spec) const {
  spec.validate();

  FleetResult out;
  out.fleet = spec.name;
  out.jobs = core::resolve_jobs(opts_.jobs);
  const auto t0 = std::chrono::steady_clock::now();

  // ---- shared immutable assets, built once ------------------------------
  core::DetectorFactoryConfig detector_cfg = spec.detector_cfg;
  if (spec.detector == core::DetectorKind::ChangePoint) detector_cfg.prepare();

  const core::CpuAsset cpu = core::build_cpu_asset(spec.cpu);

  const fault::FaultSpec* wave_fault =
      spec.wave.fraction > 0.0 ? fault::find_fault(spec.wave.fault) : nullptr;

  // assets[workload][variant][0] = base, [1] = wave-perturbed (same trace
  // seed: the wave hits the same content, delivered badly).
  const std::size_t W = spec.workloads.size();
  const std::size_t P = spec.policies.size();
  const std::size_t V = spec.trace_variants;
  std::vector<core::WorkloadAsset> assets(W * V * 2);
  std::vector<Seconds> delay_targets(W);
  for (std::size_t w = 0; w < W; ++w) {
    const core::WorkloadSpec& ws = spec.workloads[w].workload;
    delay_targets[w] = spec.delay_target.value() > 0.0
                           ? spec.delay_target
                           : ws.default_delay_target();
    for (std::size_t v = 0; v < V; ++v) {
      const std::uint64_t trace_seed = fleet_trace_seed(spec, w, v);
      assets[(w * V + v) * 2] = core::build_workload_asset(
          ws, cpu.cpu, trace_seed, fault::FaultSpec{}, 0);
      if (wave_fault != nullptr) {
        assets[(w * V + v) * 2 + 1] = core::build_workload_asset(
            ws, cpu.cpu, trace_seed, *wave_fault,
            fleet_fault_seed(spec, w, v));
      }
    }
  }

  // ---- execute: one unit per shard ---------------------------------------
  const std::size_t shard_size = std::max<std::size_t>(1, opts_.shard_size);
  const auto shard_begin = [&](std::size_t shard) {
    return static_cast<std::uint64_t>(shard) * shard_size;
  };
  const auto shard_devices = [&](std::size_t shard) -> std::size_t {
    return std::min<std::uint64_t>(shard_size,
                                   spec.num_devices - shard_begin(shard));
  };

  core::UnitPlan<FleetShardPartial> shards;
  shards.n = (spec.num_devices + shard_size - 1) / shard_size;
  shards.execute = [&](std::size_t shard) {
    FleetShardPartial part;
    part.groups.resize(W * P);
    const std::uint64_t begin = shard_begin(shard);
    const std::uint64_t end = begin + shard_devices(shard);
    for (std::uint64_t id = begin; id < end; ++id) {
      const DevicePlan plan = device_plan(spec, id);
      const bool faulted = plan.in_wave && wave_fault != nullptr;
      const core::WorkloadAsset& asset =
          assets[(plan.workload_idx * V + plan.variant) * 2 + (faulted ? 1 : 0)];

      core::RunAssembly a;
      a.detector = spec.detector;
      a.policy = spec.policies[plan.policy_idx].policy;
      a.delay_target = delay_targets[plan.workload_idx];
      a.service_cv2 = spec.service_cv2;
      a.dpm = spec.dpm;
      a.engine_seed = plan.engine_seed;
      if (faulted) a.faults = wave_fault;
      core::RunOptions opts =
          core::assemble_run_options(a, cpu, asset.idle, detector_cfg);
      // Throughput path: no per-device flight recorder ring — a fleet run
      // is aggregate-only, and the allocation would dominate small devices.
      opts.flight_recorder = false;

      core::Metrics m;
      if (plan.rate_scale != 1.0) {
        // Per-device rate jitter: re-time this device's copy of the shared
        // trace.  The asset itself stays untouched (and shared).
        std::vector<core::PlaybackItem> items;
        items.reserve(asset.items->size());
        for (const core::PlaybackItem& item : *asset.items) {
          items.push_back(core::PlaybackItem{
              item.trace.rate_scaled(plan.rate_scale), item.decoder,
              hertz(item.nominal_arrival.value() * plan.rate_scale),
              item.nominal_service_at_max,
              seconds(item.end.value() / plan.rate_scale)});
        }
        m = core::run_items(std::move(items), opts);
      } else {
        m = core::run_items(*asset.items, opts);
      }

      FleetGroupResult& g = part.groups[plan.workload_idx * P + plan.policy_idx];
      ++g.devices;
      if (faulted) ++g.wave_devices;
      g.energy_j += m.total_energy.value();
      g.frames_decoded += m.frames_decoded;
      g.frames_dropped += m.frames_dropped;
      g.faults_injected += m.faults_injected;
      g.sum_mean_delay_s += m.mean_frame_delay.value();
      g.delay_sketch.add(m.mean_frame_delay.value());
      g.energy_sketch.add(m.total_energy.value());
      g.dropped_sketch.add(static_cast<double>(m.frames_dropped));
      part.frames_total += m.frames_decoded + m.frames_dropped;
    }
    return part;
  };
  shards.on_unit = opts_.on_shard;
  // Running progress, restored shards included.
  std::size_t devices_done = 0;
  double done_energy_j = 0.0;
  const auto shard_energy = [](const FleetShardPartial& part) {
    double energy_j = 0.0;
    for (const FleetGroupResult& g : part.groups) energy_j += g.energy_j;
    return energy_j;
  };
  shards.on_restored = [&](std::size_t shard, const FleetShardPartial& part) {
    devices_done += shard_devices(shard);
    done_energy_j += shard_energy(part);
  };
  shards.fields = [&](std::size_t shard, const FleetShardPartial& part) {
    const double energy_j = shard_energy(part);
    devices_done += shard_devices(shard);
    done_energy_j += energy_j;
    return core::UnitFields{
        {"shard", static_cast<double>(shard)},
        {"devices_done", static_cast<double>(devices_done)},
        {"devices", static_cast<double>(shard_devices(shard))},
        {"energy_j", energy_j},
        {"running_fleet_energy_j", done_energy_j}};
  };
  const core::UnitRun<FleetShardPartial> run =
      core::run_units<FleetShardPartial>(opts_, shards);
  out.units = run.counts;

  // ---- fold serially, shard-index order ---------------------------------
  out.devices = spec.num_devices;
  out.groups.resize(W * P);
  for (std::size_t w = 0; w < W; ++w) {
    for (std::size_t p = 0; p < P; ++p) {
      FleetGroupResult& g = out.groups[w * P + p];
      g.workload = spec.workloads[w].workload.name();
      g.policy = spec.policies[p].policy;
    }
  }
  for (const FleetShardPartial& part : run.partials) {
    // A restored partial is checkpoint input: it must fit this slice grid.
    DVS_CHECK_MSG(part.groups.size() == out.groups.size(),
                  "FleetRunner: shard partial does not match the slice grid");
    out.frames_total += part.frames_total;
    for (std::size_t i = 0; i < part.groups.size(); ++i) {
      out.groups[i].fold(part.groups[i]);
    }
  }
  out.total.workload = "all";
  out.total.policy = "all";
  for (const FleetGroupResult& g : out.groups) out.total.fold(g);

  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace dvs::fleet
