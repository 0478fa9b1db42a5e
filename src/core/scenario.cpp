#include "core/scenario.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "dpm/adaptive.hpp"
#include "hw/cpu_catalog.hpp"
#include "workload/work_model.hpp"

namespace dvs::core {

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  // The shared SplitMix64-finalizer mixer; kept here as a named symbol so
  // existing core callers keep linking against core::mix_seed.
  return ::dvs::mix_seed(a, b);
}

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

// ---- workload axis --------------------------------------------------------------

std::string WorkloadSpec::name() const {
  switch (kind) {
    case WorkloadKind::Mp3Sequence:
      return "mp3:" + mp3_labels;
    case WorkloadKind::MpegClip:
      return mpeg_limit.value() > 0.0
                 ? "mpeg:" + mpeg_clip + "@" + num(mpeg_limit.value()) + "s"
                 : "mpeg:" + mpeg_clip;
    case WorkloadKind::Session:
      return "session:" + std::to_string(session.cycles) + "x" +
             num(session.mpeg_segment.value()) + "s";
  }
  return "?";
}

Seconds WorkloadSpec::default_delay_target() const {
  // Table 3 uses 0.15 s for audio, Table 4/5 0.1 s for video and sessions.
  return kind == WorkloadKind::Mp3Sequence ? seconds(0.15) : seconds(0.1);
}

WorkloadSpec WorkloadSpec::mp3(std::string labels) {
  WorkloadSpec w;
  w.kind = WorkloadKind::Mp3Sequence;
  w.mp3_labels = std::move(labels);
  return w;
}

WorkloadSpec WorkloadSpec::mpeg(std::string clip, Seconds limit) {
  WorkloadSpec w;
  w.kind = WorkloadKind::MpegClip;
  w.mpeg_clip = std::move(clip);
  w.mpeg_limit = limit;
  return w;
}

WorkloadSpec WorkloadSpec::usage_session(SessionConfig cfg) {
  WorkloadSpec w;
  w.kind = WorkloadKind::Session;
  w.session = std::move(cfg);
  return w;
}

// ---- DPM axis -------------------------------------------------------------------

namespace {

struct DpmKindName {
  DpmKind kind;
  const char* name;
};

constexpr DpmKindName kDpmKindNames[] = {
    {DpmKind::None, "none"},         {DpmKind::Timeout, "timeout"},
    {DpmKind::Renewal, "renewal"},   {DpmKind::Tismdp, "tismdp"},
    {DpmKind::Adaptive, "adaptive"}, {DpmKind::Oracle, "oracle"},
};

}  // namespace

std::string to_string(DpmKind kind) {
  for (const DpmKindName& e : kDpmKindNames) {
    if (e.kind == kind) return e.name;
  }
  return "?";
}

std::optional<DpmKind> dpm_kind_from_string(std::string_view name) {
  for (const DpmKindName& e : kDpmKindNames) {
    if (name == e.name) return e.kind;
  }
  return std::nullopt;
}

std::string known_dpm_kinds() {
  std::string known;
  for (const DpmKindName& e : kDpmKindNames) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  return known;
}

std::string DpmSpec::name() const {
  switch (kind) {
    case DpmKind::Timeout:
      return "timeout(" + num(timeout_standby.value()) + "s," +
             num(timeout_off.value()) + "s)";
    case DpmKind::Tismdp:
    case DpmKind::Adaptive:
      return to_string(kind) + "(" + num(max_delay.value()) + "s)";
    default:
      return to_string(kind);
  }
}

dpm::DpmPolicyPtr make_dpm_policy(const DpmSpec& spec,
                                  const dpm::DpmCostModel& costs,
                                  const dpm::IdleDistributionPtr& idle) {
  switch (spec.kind) {
    case DpmKind::None:
      return nullptr;
    case DpmKind::Timeout:
      return std::make_shared<dpm::FixedTimeoutPolicy>(spec.timeout_standby,
                                                       spec.timeout_off);
    case DpmKind::Renewal:
      return std::make_shared<dpm::RenewalPolicy>(costs, idle);
    case DpmKind::Tismdp:
      return std::make_shared<dpm::TismdpPolicy>(costs, idle, spec.max_delay);
    case DpmKind::Adaptive: {
      dpm::AdaptiveDpmConfig acfg;
      acfg.max_expected_delay = spec.max_delay;
      return std::make_shared<dpm::AdaptiveDpmPolicy>(costs, acfg);
    }
    case DpmKind::Oracle:
      return std::make_shared<dpm::OraclePolicy>(costs);
  }
  return nullptr;
}

// ---- the grid -------------------------------------------------------------------

std::string RunPoint::label() const {
  std::string l = workload.name() + "/" + core::to_string(detector) + "/" +
                  dpm.name() + "/r" + std::to_string(replicate);
  if (policy != "paper") l += "/p:" + policy;
  if (!faults.none()) l += "/f:" + faults.name;
  return l;
}

std::size_t ScenarioSpec::num_cells() const {
  return workloads.size() * cpus.size() * policies.size() *
         service_cv2s.size() * delay_targets.size() * faults.size() *
         dpm.size() * detectors.size();
}

std::size_t ScenarioSpec::num_points() const {
  return num_cells() * static_cast<std::size_t>(replicates);
}

std::vector<RunPoint> ScenarioSpec::expand() const {
  DVS_CHECK_MSG(!workloads.empty(), "ScenarioSpec: no workloads");
  DVS_CHECK_MSG(!detectors.empty(), "ScenarioSpec: no detectors");
  DVS_CHECK_MSG(!dpm.empty(), "ScenarioSpec: no dpm axis");
  DVS_CHECK_MSG(!cpus.empty(), "ScenarioSpec: no cpus");
  DVS_CHECK_MSG(!delay_targets.empty(), "ScenarioSpec: no delay targets");
  DVS_CHECK_MSG(!service_cv2s.empty(), "ScenarioSpec: no cv2 axis");
  DVS_CHECK_MSG(!faults.empty(), "ScenarioSpec: no fault axis");
  DVS_CHECK_MSG(!policies.empty(), "ScenarioSpec: no policy axis");
  DVS_CHECK_MSG(replicates > 0, "ScenarioSpec: replicates must be >= 1");

  std::vector<RunPoint> points;
  points.reserve(num_points());
  std::size_t cell = 0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      for (std::size_t pol = 0; pol < policies.size(); ++pol) {
        for (double cv2 : service_cv2s) {
          for (Seconds delay : delay_targets) {
            for (std::size_t f = 0; f < faults.size(); ++f) {
              for (const DpmSpec& d : dpm) {
                for (DetectorKind det : detectors) {
                  for (int r = 0; r < replicates; ++r) {
                    RunPoint p;
                    p.index = points.size();
                    p.cell = cell;
                    p.replicate = r;
                    p.workload_idx = w;
                    p.cpu_idx = c;
                    p.fault_idx = f;
                    p.policy_idx = pol;
                    p.workload = workloads[w];
                    p.detector = det;
                    p.dpm = d;
                    p.faults = faults[f];
                    p.cpu = cpus[c];
                    p.policy = policies[pol];
                    p.delay_target = delay.value() > 0.0
                                         ? delay
                                         : workloads[w].default_delay_target();
                    p.service_cv2 = cv2;
                    // Trace seed: shared by every algorithm of the same
                    // (cpu, workload, replicate) row — policies included —
                    // so everything competes on identical traces; disjoint
                    // from the engine substreams via the low bit.
                    const std::uint64_t row =
                        ((c * 4096 + w) << 20) | static_cast<std::uint64_t>(r);
                    p.trace_seed = mix_seed(base_seed, row << 1);
                    p.engine_seed = mix_seed(base_seed, (p.index << 1) | 1);
                    // Fault substream: a function of the trace seed and the
                    // fault index only, so detectors still compete on the
                    // same perturbed trace within a row.
                    p.fault_seed = mix_seed(p.trace_seed, f + 1);
                    points.push_back(std::move(p));
                  }
                  ++cell;
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

hw::Sa1100 cpu_by_name(std::string_view name) {
  if (name == "sa1100") return hw::smartbadge_sa1100();
  if (name == "crusoe" || name == "crusoe-like") return hw::crusoe_like();
  if (name == "frequency-only") return hw::frequency_only_sa1100();
  throw std::invalid_argument("cpu_by_name: unknown cpu '" + std::string(name) +
                              "' (try sa1100, crusoe, frequency-only)");
}

// ---- built-in registry ----------------------------------------------------------

namespace {

std::vector<ScenarioSpec> make_builtins() {
  std::vector<ScenarioSpec> specs;

  {
    ScenarioSpec s;
    s.name = "table3";
    s.title = "Table 3: MP3 audio DVS";
    s.paper_ref = "Simunic et al., DAC'01, Table 3";
    s.workloads = {WorkloadSpec::mp3("ACEFBD"), WorkloadSpec::mp3("BADECF"),
                   WorkloadSpec::mp3("CEDAFB")};
    s.detectors = {DetectorKind::Ideal, DetectorKind::ChangePoint,
                   DetectorKind::ExpAverage, DetectorKind::Max};
    s.delay_targets = {seconds(0.15)};
    s.replicates = 5;
    s.base_seed = 3;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "table4";
    s.title = "Table 4: MPEG video DVS";
    s.paper_ref = "Simunic et al., DAC'01, Table 4";
    s.workloads = {WorkloadSpec::mpeg("football"),
                   WorkloadSpec::mpeg("terminator2")};
    s.detectors = {DetectorKind::Ideal, DetectorKind::ChangePoint,
                   DetectorKind::ExpAverage, DetectorKind::Max};
    s.delay_targets = {seconds(0.1)};
    s.replicates = 5;
    s.base_seed = 4;
    specs.push_back(std::move(s));
  }
  {
    // The four management configurations fall out of the grid: with the
    // detector axis {Max, ChangePoint} and the DPM axis {none, tismdp},
    // cells enumerate None, DVS, DPM, Both in that order.
    ScenarioSpec s;
    s.name = "table5";
    s.title = "Table 5: DPM and DVS";
    s.paper_ref = "Simunic et al., DAC'01, Table 5 (combined savings ~3x)";
    SessionConfig scfg;
    scfg.cycles = 8;
    scfg.mpeg_segment = seconds(45.0);
    scfg.idle = std::make_shared<dpm::ParetoIdle>(1.8, seconds(70.0));
    s.workloads = {WorkloadSpec::usage_session(scfg)};
    s.detectors = {DetectorKind::Max, DetectorKind::ChangePoint};
    DpmSpec tismdp;
    tismdp.kind = DpmKind::Tismdp;
    tismdp.max_delay = seconds(0.5);
    s.dpm = {DpmSpec{}, tismdp};
    s.base_seed = 505;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "ablation-delay-target";
    s.title = "Ablation: delay target (Equation 5 constant)";
    s.paper_ref = "Simunic et al., DAC'01, Section 3.1 / Tables 3-4 setup";
    s.workloads = {WorkloadSpec::mp3("ACEFBD")};
    s.delay_targets = {seconds(0.05), seconds(0.10), seconds(0.15),
                       seconds(0.25), seconds(0.50), seconds(1.00)};
    s.base_seed = 1414;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "ablation-mg1";
    s.title = "Ablation: queueing model in the frequency policy";
    s.paper_ref = "Simunic et al., DAC'01, Section 3.1 (general-distribution"
                  " caveat)";
    s.workloads = {WorkloadSpec::mp3("ACEFBD")};
    s.delay_targets = {seconds(0.15)};
    s.service_cv2s = {1.0, 0.25, workload::Mp3Work{}.cv2(), 0.0};
    s.base_seed = 777;
    specs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "ablation-voltage-range";
    s.title = "Ablation: DVS win vs processor voltage range";
    s.paper_ref = "Simunic et al., DAC'01, Section 1 (Crusoe reference) —"
                  " what-if study";
    s.workloads = {WorkloadSpec::mp3("ACEFBD")};
    s.detectors = {DetectorKind::Max, DetectorKind::ChangePoint};
    s.cpus = {"sa1100", "crusoe", "frequency-only"};
    s.delay_targets = {seconds(0.15)};
    s.base_seed = 4040;
    specs.push_back(std::move(s));
  }
  {
    // Simulated-session counterpart of the analytic DPM-policy table: every
    // policy family across replicated idle-heavy sessions, DVS held at Max
    // so the idle mechanism is isolated.
    ScenarioSpec s;
    s.name = "ablation-dpm-policies";
    s.title = "Ablation: DPM policy family on a simulated session";
    s.paper_ref = "Simunic et al., DAC'01, Section 3 (renewal vs TISMDP"
                  " models) + refs [2,3]";
    SessionConfig scfg;
    scfg.cycles = 4;
    scfg.mpeg_segment = seconds(30.0);
    scfg.idle = std::make_shared<dpm::ParetoIdle>(1.8, seconds(60.0));
    s.workloads = {WorkloadSpec::usage_session(scfg)};
    s.detectors = {DetectorKind::Max};
    DpmSpec t1;
    t1.kind = DpmKind::Timeout;
    t1.timeout_standby = seconds(1.0);
    t1.timeout_off = seconds(10.0);
    DpmSpec t2;
    t2.kind = DpmKind::Timeout;
    t2.timeout_standby = seconds(30.0);
    t2.timeout_off = seconds(300.0);
    DpmSpec renewal;
    renewal.kind = DpmKind::Renewal;
    DpmSpec tismdp_tight;
    tismdp_tight.kind = DpmKind::Tismdp;
    tismdp_tight.max_delay = seconds(0.1);
    DpmSpec tismdp;
    tismdp.kind = DpmKind::Tismdp;
    tismdp.max_delay = seconds(0.5);
    DpmSpec adaptive;
    adaptive.kind = DpmKind::Adaptive;
    adaptive.max_delay = seconds(0.5);
    DpmSpec oracle;
    oracle.kind = DpmKind::Oracle;
    s.dpm = {DpmSpec{}, t1, t2, renewal, tismdp_tight, tismdp, adaptive, oracle};
    s.replicates = 2;
    s.base_seed = 606;
    specs.push_back(std::move(s));
  }
  {
    // ROADMAP item 2: every registered governor policy on the same trace
    // grid, with the offline-optimal oracle solved per trace so each cell
    // carries a competitive-ratio column.  Short clips keep the O(n^2)
    // oracle solve and the CI smoke cheap.
    ScenarioSpec s;
    s.name = "policy_shootout";
    s.title = "Policy shootout: paper vs Q-DPM vs max, offline-optimal oracle";
    s.paper_ref = "ROADMAP item 2; Li/Yao/Yuan optimal schedules + Q-DPM"
                  " (PAPERS.md)";
    s.workloads = {WorkloadSpec::mp3("A"),
                   WorkloadSpec::mpeg("football", seconds(45.0))};
    s.policies = {"paper", "qdpm", "max"};
    s.detectors = {DetectorKind::ChangePoint};
    s.replicates = 3;
    s.base_seed = 9090;
    s.oracle = true;
    s.detector_cfg.change_point.mc_windows = 500;
    specs.push_back(std::move(s));
  }
  {
    // Small smoke scenario for CLI / CI: one short audio clip, governor vs
    // pinned-max, two replicates.
    ScenarioSpec s;
    s.name = "quick";
    s.title = "Quick smoke sweep: clip A, change-point vs max";
    s.paper_ref = "Simunic et al., DAC'01, Tables 2/3 setup (reduced)";
    s.workloads = {WorkloadSpec::mp3("A")};
    s.detectors = {DetectorKind::ChangePoint, DetectorKind::Max};
    s.replicates = 2;
    s.base_seed = 7;
    s.detector_cfg.change_point.mc_windows = 500;
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace

std::span<const ScenarioSpec> builtin_scenarios() {
  static const std::vector<ScenarioSpec> specs = make_builtins();
  return specs;
}

const ScenarioSpec* find_scenario(std::string_view name) {
  for (const ScenarioSpec& s : builtin_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace dvs::core
