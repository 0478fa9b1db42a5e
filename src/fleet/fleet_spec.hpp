// Declarative fleet populations: "run N devices, each an independent
// core::Engine, drawn from this policy/workload mix" stated once, expanded
// deterministically per device.
//
// The paper models ONE SmartBadge.  A deployment has thousands; what an
// operator tunes against is the population — p99 frame delay over devices,
// total fleet energy, how a rate spike hitting a tenth of the fleet moves
// the tail.  A FleetSpec captures that population declaratively, and the
// per-device expansion below is pure arithmetic on RNG substreams so any
// device's configuration can be recomputed in isolation, on any shard, on
// any thread, and always comes out the same.
//
// Seed discipline (the sweep's substream scheme, one level deeper):
//   device_seed = mix_seed(fleet_seed, device_id)
// and every per-device draw (workload pick, trace variant, policy pick,
// fault-wave membership, rate jitter, engine seed) is a tagged substream of
// device_seed.  Traces are NOT per-device: devices map onto a small pool of
// prepared trace variants (trace_variants per workload entry) so a million
// devices share a few dozen immutable FrameTraces — the asset-reuse trick
// that makes fleet scale affordable — while rate jitter still gives every
// device its own timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"

namespace dvs::fleet {

/// One governor-policy slice of the population (policy::GovernorFactory
/// key + relative weight; weights need not sum to 1).
struct PolicyShare {
  std::string policy = "paper";
  double weight = 1.0;
};

/// One workload slice of the population.
struct WorkloadShare {
  core::WorkloadSpec workload;
  double weight = 1.0;
};

/// A fault wave hitting a random fixed fraction of the fleet: affected
/// devices play the fault-perturbed variant of their trace and run under
/// the fault's hardware plan / watchdog config.  `fault` is a builtin
/// fault::FaultSpec name ("spike10x", "chaos", ...); empty = no wave.
struct FaultWave {
  std::string fault;
  double fraction = 0.0;  ///< fraction of devices in the wave, [0, 1]
};

struct FleetSpec {
  std::string name;         ///< registry key, e.g. "fleet_smoke"
  std::string title;        ///< printed header
  std::string description;  ///< one-liner for `dvs_sim list fleets`

  std::size_t num_devices = 10000;
  std::uint64_t fleet_seed = 1;

  std::vector<WorkloadShare> workloads;  ///< must be non-empty
  std::vector<PolicyShare> policies{{"paper", 1.0}};

  core::DetectorKind detector = core::DetectorKind::ChangePoint;
  core::DpmSpec dpm{};
  /// 0 = each device uses its workload's per-media default target.
  Seconds delay_target{0.0};
  double service_cv2 = 1.0;

  /// Prepared traces per workload entry; devices hash onto one of these.
  std::size_t trace_variants = 8;
  /// Per-device arrival-rate scale drawn uniformly from
  /// [1 - rate_jitter, 1 + rate_jitter]; 0 = every device at nominal rate.
  double rate_jitter = 0.0;
  FaultWave wave{};

  std::string cpu = "sa1100";  ///< hw/cpu_catalog name
  core::DetectorFactoryConfig detector_cfg{};

  /// Throws std::invalid_argument on an inconsistent spec (no workloads,
  /// an invalid workload, non-positive weights, unknown wave fault, jitter
  /// outside [0, 1), ...).
  void validate() const;
};

/// Everything device-specific, computed purely from (spec, device_id) —
/// no shared state, no iteration order, so shard boundaries and thread
/// schedules cannot influence any device's run.
struct DevicePlan {
  std::size_t workload_idx = 0;  ///< index into FleetSpec::workloads
  std::size_t variant = 0;       ///< trace variant within the workload
  std::size_t policy_idx = 0;    ///< index into FleetSpec::policies
  bool in_wave = false;
  double rate_scale = 1.0;
  std::uint64_t engine_seed = 0;
};

DevicePlan device_plan(const FleetSpec& spec, std::uint64_t device_id);

/// Workload-generation seed for one (workload entry, variant) asset —
/// independent of device count, so growing the fleet never regenerates
/// traces.
std::uint64_t fleet_trace_seed(const FleetSpec& spec, std::size_t workload_idx,
                               std::size_t variant);
/// Fault-transform seed for the wave-perturbed flavour of the same asset.
std::uint64_t fleet_fault_seed(const FleetSpec& spec, std::size_t workload_idx,
                               std::size_t variant);

/// Ready-to-run fleet specs ("fleet_smoke", "fleet_city").
std::span<const FleetSpec> builtin_fleets();

/// Lookup by name; nullptr when absent.
const FleetSpec* find_fleet(std::string_view name);

}  // namespace dvs::fleet
