#include "fleet/fleet_spec.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fault/fault_spec.hpp"
#include "policy/governor_factory.hpp"

namespace dvs::fleet {

namespace {

// Substream tags: one per per-device draw, so adding a draw never shifts
// the others (the sweep's seed-mixing stability argument, per device).
constexpr std::uint64_t kWorkloadTag = 0xf1ee70001ULL;
constexpr std::uint64_t kVariantTag = 0xf1ee70002ULL;
constexpr std::uint64_t kPolicyTag = 0xf1ee70003ULL;
constexpr std::uint64_t kWaveTag = 0xf1ee70004ULL;
constexpr std::uint64_t kJitterTag = 0xf1ee70005ULL;
constexpr std::uint64_t kEngineTag = 0xf1ee70006ULL;
// Trace substreams hang off the fleet seed, not any device seed.
constexpr std::uint64_t kTraceTag = 0xf1ee7000aULL;
constexpr std::uint64_t kFaultTag = 0xf1ee7000bULL;

/// Uniform double in [0, 1) from one tagged substream draw (the standard
/// 53-bit mantissa construction over the mixed 64-bit value).
double tagged_uniform(std::uint64_t device_seed, std::uint64_t tag) {
  return static_cast<double>(mix_seed(device_seed, tag) >> 11) * 0x1.0p-53;
}

/// Weighted pick: u in [0, 1) against the normalized cumulative weights.
template <typename Shares>
std::size_t weighted_pick(const Shares& shares, double total, double u) {
  double acc = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    acc += shares[i].weight / total;
    if (u < acc) return i;
  }
  return shares.size() - 1;  // float round-off on the last boundary
}

template <typename Shares>
double total_weight(const Shares& shares) {
  double total = 0.0;
  for (const auto& s : shares) total += s.weight;
  return total;
}

}  // namespace

void FleetSpec::validate() const {
  if (num_devices == 0) {
    throw std::invalid_argument("FleetSpec: num_devices must be > 0");
  }
  if (workloads.empty()) {
    throw std::invalid_argument("FleetSpec: at least one workload share");
  }
  if (policies.empty()) {
    throw std::invalid_argument("FleetSpec: at least one policy share");
  }
  for (const WorkloadShare& w : workloads) {
    if (!(w.weight > 0.0)) {
      throw std::invalid_argument("FleetSpec: workload weights must be > 0");
    }
    w.workload.validate();
  }
  for (const PolicyShare& p : policies) {
    if (!(p.weight > 0.0)) {
      throw std::invalid_argument("FleetSpec: policy weights must be > 0");
    }
    if (!policy::GovernorFactory::instance().has(p.policy)) {
      throw std::invalid_argument("FleetSpec: unknown governor policy '" +
                                  p.policy + "'");
    }
  }
  if (trace_variants == 0) {
    throw std::invalid_argument("FleetSpec: trace_variants must be > 0");
  }
  if (rate_jitter < 0.0 || rate_jitter >= 1.0) {
    throw std::invalid_argument("FleetSpec: rate_jitter must be in [0, 1)");
  }
  if (wave.fraction < 0.0 || wave.fraction > 1.0) {
    throw std::invalid_argument("FleetSpec: wave fraction must be in [0, 1]");
  }
  if (wave.fraction > 0.0 && fault::find_fault(wave.fault) == nullptr) {
    throw std::invalid_argument("FleetSpec: unknown wave fault '" + wave.fault +
                                "'");
  }
}

DevicePlan device_plan(const FleetSpec& spec, std::uint64_t device_id) {
  const std::uint64_t device_seed = mix_seed(spec.fleet_seed, device_id);
  DevicePlan plan;
  plan.workload_idx =
      weighted_pick(spec.workloads, total_weight(spec.workloads),
                    tagged_uniform(device_seed, kWorkloadTag));
  plan.variant = static_cast<std::size_t>(
      mix_seed(device_seed, kVariantTag) % spec.trace_variants);
  plan.policy_idx = weighted_pick(spec.policies, total_weight(spec.policies),
                                  tagged_uniform(device_seed, kPolicyTag));
  plan.in_wave = spec.wave.fraction > 0.0 && !spec.wave.fault.empty() &&
                 tagged_uniform(device_seed, kWaveTag) < spec.wave.fraction;
  plan.rate_scale =
      spec.rate_jitter == 0.0
          ? 1.0
          : 1.0 + spec.rate_jitter *
                      (2.0 * tagged_uniform(device_seed, kJitterTag) - 1.0);
  plan.engine_seed = mix_seed(device_seed, kEngineTag);
  return plan;
}

std::uint64_t fleet_trace_seed(const FleetSpec& spec, std::size_t workload_idx,
                               std::size_t variant) {
  return mix_seed(mix_seed(spec.fleet_seed, kTraceTag),
                  workload_idx * spec.trace_variants + variant);
}

std::uint64_t fleet_fault_seed(const FleetSpec& spec, std::size_t workload_idx,
                               std::size_t variant) {
  return mix_seed(fleet_trace_seed(spec, workload_idx, variant), kFaultTag);
}

namespace {

std::vector<FleetSpec> make_builtin_fleets() {
  std::vector<FleetSpec> fleets;

  {
    // CI-sized population: short clips so 10k devices finish in seconds,
    // but every fleet mechanism exercised — mixed media, a three-way
    // policy split, rate jitter, and a spike wave hitting a tenth of the
    // devices.
    FleetSpec s;
    s.name = "fleet_smoke";
    s.title = "Fleet smoke: 10k mixed devices, 10% rate-spike wave";
    s.description =
        "10k devices, mp3+short-mpeg mix, paper/qdpm/max split, "
        "10% spike10x wave";
    s.num_devices = 10000;
    s.fleet_seed = 2001;
    s.workloads = {
        {core::WorkloadSpec::mpeg("football", seconds(12.0)), 3.0},
        {core::WorkloadSpec::mpeg("terminator2", seconds(12.0)), 1.0},
        {core::WorkloadSpec::mp3("A"), 1.0},
    };
    s.policies = {{"paper", 0.7}, {"qdpm", 0.2}, {"max", 0.1}};
    s.dpm.kind = core::DpmKind::Tismdp;
    s.trace_variants = 8;
    s.rate_jitter = 0.1;
    s.wave = {"spike10x", 0.1};
    // The sweep "quick" scenario's lighter threshold table: the fleet CI
    // step must not spend its budget on Monte-Carlo threshold prep.
    s.detector_cfg.change_point.mc_windows = 500;
    fleets.push_back(std::move(s));
  }

  {
    // Deployment-scale population: 100k devices, longer media, a chaos
    // wave on 5% — the config behind the EXPERIMENTS.md fleet table.
    FleetSpec s;
    s.name = "fleet_city";
    s.title = "Fleet city: 100k devices, chaos wave on 5%";
    s.description =
        "100k devices, full mp3 sequence + 60s mpeg, paper/qdpm split, "
        "5% chaos wave";
    s.num_devices = 100000;
    s.fleet_seed = 2002;
    s.workloads = {
        {core::WorkloadSpec::mp3("ACE"), 1.0},
        {core::WorkloadSpec::mpeg("football", seconds(60.0)), 2.0},
    };
    s.policies = {{"paper", 0.8}, {"qdpm", 0.2}};
    s.dpm.kind = core::DpmKind::Tismdp;
    s.trace_variants = 16;
    s.rate_jitter = 0.15;
    s.wave = {"chaos", 0.05};
    s.detector_cfg.change_point.mc_windows = 500;
    fleets.push_back(std::move(s));
  }

  return fleets;
}

}  // namespace

std::span<const FleetSpec> builtin_fleets() {
  static const std::vector<FleetSpec> fleets = make_builtin_fleets();
  return fleets;
}

const FleetSpec* find_fleet(std::string_view name) {
  for (const FleetSpec& s : builtin_fleets()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace dvs::fleet
