// Declarative experiment scenarios: the shape shared by every paper
// artifact (Tables 2-5, Figures 4-10, the ablations) is "run the Engine
// over a grid of detector x DPM policy x CPU x delay target x workload,
// replicated over seeds".  A ScenarioSpec states that grid once; expand()
// turns it into independent RunPoints that the SweepRunner (core/sweep.hpp)
// executes serially or in parallel with bit-identical results.
//
// Axis semantics follow the paper's methodology:
//  * Detectors within one (workload, cpu, replicate) cell row share the
//    same generated trace — Tables 3/4 compare algorithms "on the same
//    inputs" — so the trace seed depends only on those three indices.
//  * Every point gets its own engine seed (hash of base_seed and the point
//    index), an independent substream for randomized DPM policies.
//  * DPM policies are stateful (adaptive ones learn); a spec therefore
//    carries a declarative DpmSpec per axis value and each point
//    instantiates a fresh policy object.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/detectors.hpp"
#include "core/experiment.hpp"
#include "dpm/cost_model.hpp"
#include "dpm/idle_model.hpp"
#include "dpm/policy.hpp"
#include "fault/fault_spec.hpp"

namespace dvs::core {

/// Deterministic 64-bit seed mixer (SplitMix64 finalizer over a ^ f(b)):
/// the per-point RNG substream scheme, stable across platforms and runs.
/// Delegates to dvs::mix_seed (common/rng.hpp), the shared implementation
/// also used by policies that need substreams below the core layer.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

// ---- workload axis --------------------------------------------------------------

enum class WorkloadKind {
  Mp3Sequence,  ///< Table 2 clip labels played back to back (Table 3 setup)
  MpegClip,     ///< one video clip, optionally truncated (Table 4 setup)
  Session       ///< mixed audio/video/idle usage session (Table 5 setup)
};

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::Mp3Sequence;
  std::string mp3_labels = "ACEFBD";   ///< Mp3Sequence: Table 2 labels
  std::string mpeg_clip = "football";  ///< MpegClip: football | terminator2
  Seconds mpeg_limit{0.0};             ///< MpegClip: > 0 truncates the clip
  SessionConfig session{};             ///< Session (seed overridden per point)

  /// Cell label, e.g. "mp3:ACEFBD", "mpeg:football@45s", "session:8x45s".
  [[nodiscard]] std::string name() const;
  /// Default delay target for this workload's media (0.15 s audio, 0.1 s
  /// video/session), the paper's Tables 3/4 setup.
  [[nodiscard]] Seconds default_delay_target() const;
  /// Throws std::invalid_argument on an MP3 sequence that is empty or has
  /// a label outside A-F, or an MPEG clip other than football|terminator2.
  /// Spec validation calls it for every workload, so a bad one fails the
  /// run even when no unit plays it.
  void validate() const;

  static WorkloadSpec mp3(std::string labels);
  static WorkloadSpec mpeg(std::string clip, Seconds limit = Seconds{0.0});
  static WorkloadSpec usage_session(SessionConfig cfg);
};

// ---- DPM axis -------------------------------------------------------------------

enum class DpmKind { None, Timeout, Renewal, Tismdp, Adaptive, Oracle };

std::string to_string(DpmKind kind);
/// Parses the CLI spelling ("none", "timeout", "renewal", "tismdp",
/// "adaptive", "oracle"); nullopt for unknown names.
std::optional<DpmKind> dpm_kind_from_string(std::string_view name);
/// Every CLI spelling, comma-separated, for usage errors.
std::string known_dpm_kinds();

struct DpmSpec {
  DpmKind kind = DpmKind::None;
  Seconds max_delay{0.5};        ///< TISMDP / adaptive expected-delay bound
  Seconds timeout_standby{2.0};  ///< Timeout: standby after this idle time
  Seconds timeout_off{30.0};     ///< Timeout: off after this idle time

  [[nodiscard]] std::string name() const;
};

/// Instantiates a fresh policy for one run.  Policies are stateful, so
/// concurrent runs must never share instances — each RunPoint calls this.
/// Returns null for DpmKind::None (engine then never sleeps).
dpm::DpmPolicyPtr make_dpm_policy(const DpmSpec& spec,
                                  const dpm::DpmCostModel& costs,
                                  const dpm::IdleDistributionPtr& idle);

// ---- the grid -------------------------------------------------------------------

/// One fully-resolved grid cell x replicate: everything needed to execute
/// the run, independent of every other point.
struct RunPoint {
  std::size_t index = 0;  ///< position in expansion order
  std::size_t cell = 0;   ///< cell id; replicates of one cell share it
  int replicate = 0;

  std::size_t workload_idx = 0;  ///< index into ScenarioSpec::workloads
  std::size_t cpu_idx = 0;       ///< index into ScenarioSpec::cpus
  std::size_t fault_idx = 0;     ///< index into ScenarioSpec::faults
  std::size_t policy_idx = 0;    ///< index into ScenarioSpec::policies
  WorkloadSpec workload;
  DetectorKind detector = DetectorKind::ChangePoint;
  DpmSpec dpm;
  fault::FaultSpec faults;
  std::string cpu;
  /// Governor policy (policy::GovernorFactory key, e.g. "paper", "qdpm").
  std::string policy = "paper";
  Seconds delay_target{0.1};
  double service_cv2 = 1.0;

  /// Workload generation seed: mix(base_seed, cpu/workload/replicate) —
  /// shared by every detector/DPM/delay/cv2 combination of the same row so
  /// algorithms compete on identical traces.
  std::uint64_t trace_seed = 0;
  /// Engine seed: mix(base_seed, point index) — an independent substream
  /// per point for randomized policies and wakeup-time draws.
  std::uint64_t engine_seed = 0;
  /// Fault-transform seed: mix(trace_seed, fault index) — shared by every
  /// detector of the same row and fault (algorithms still compete on
  /// identical perturbed traces), distinct per fault spec.
  std::uint64_t fault_seed = 0;
};

/// A declarative sweep: the cross product of the axes below, replicated.
/// Empty axes get the documented defaults on expand().
struct ScenarioSpec {
  std::string name;       ///< registry key, e.g. "table5"
  std::string title;      ///< printed header
  std::string paper_ref;  ///< which artifact this reproduces

  std::vector<WorkloadSpec> workloads;
  std::vector<DetectorKind> detectors{DetectorKind::ChangePoint};
  std::vector<DpmSpec> dpm{DpmSpec{}};
  /// Fault axis; the default single "none" spec leaves the grid exactly as
  /// it was before faults existed (same cells, seeds and results).
  std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
  std::vector<std::string> cpus{"sa1100"};  ///< hw/cpu_catalog names
  /// Governor policy axis (policy::GovernorFactory keys); the default
  /// single "paper" entry leaves the grid exactly as it was before the axis
  /// existed (same cells, seeds and results).  Policies of one row share
  /// the trace seed, so they compete on identical inputs.
  std::vector<std::string> policies{"paper"};
  /// Delay targets; a 0 entry means the workload's per-media default.
  std::vector<Seconds> delay_targets{Seconds{0.0}};
  std::vector<double> service_cv2s{1.0};
  int replicates = 1;
  std::uint64_t base_seed = 1;

  /// When true the sweep also solves the offline-optimal voltage schedule
  /// (policy::OptimalOracle, O(n^2) in the trace length) once per workload
  /// asset and reports each point's competitive ratio: measured CPU energy
  /// over the oracle's discrete-step lower bound.
  bool oracle = false;

  /// Shared detector configuration (the sweep prepares its own copy once;
  /// the spec itself stays immutable during a run).
  DetectorFactoryConfig detector_cfg{};

  [[nodiscard]] std::size_t num_cells() const;
  [[nodiscard]] std::size_t num_points() const;

  /// Expands the grid in deterministic order: workload (outer) -> cpu ->
  /// policy -> cv2 -> delay -> fault -> dpm -> detector -> replicate
  /// (inner).
  [[nodiscard]] std::vector<RunPoint> expand() const;
};

/// Resolves a catalog CPU by name: "sa1100", "crusoe", "frequency-only".
/// Throws std::invalid_argument for unknown names.
hw::Sa1100 cpu_by_name(std::string_view name);

// ---- built-in registry ----------------------------------------------------------

/// The paper's table/ablation sweeps as ready-to-run specs ("table3",
/// "table4", "table5", "ablation-delay-target", "ablation-mg1",
/// "ablation-voltage-range", "ablation-dpm-policies", "quick").
std::span<const ScenarioSpec> builtin_scenarios();

/// Lookup by name; nullptr when absent.
const ScenarioSpec* find_scenario(std::string_view name);

}  // namespace dvs::core
