// perfbench_driver: the in-process half of the repo benchmark (README.md).
// run.py spawns it.  It runs the sweep_paper and fleet_mix workloads
// through the real runners and checks every pass's outputs against the
// first pass.  For serve_stream it replays the job mix and times the serve
// layer's public functions on the daemon's final spool.  Every mode prints
// one JSON object as its last stdout line.
//
//   perfbench_driver setup   <sweep_paper|fleet_mix> --seed N [--quick]
//   perfbench_driver measure <sweep_paper|fleet_mix> --seed N --seconds S
//                            --trace 0|1 --out DIR [--quick]
//   perfbench_driver serve-probe --root SPOOL --jobs-dir DIR --out DIR
//
// Layers are timed from outside the simulator: wrapped calls to public
// functions, the runners' hooks (SweepOptions::configure_run / on_point,
// FleetOptions::on_shard) and an obs::SpanProfiler attached through
// RunOptions::profiler.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "detect/table_cache.hpp"
#include "dpm/solve_cache.hpp"
#include "fault/fault_spec.hpp"
#include "fleet/fleet_runner.hpp"
#include "fleet/fleet_spec.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "obs/telemetry/span_profiler.hpp"
#include "serve/checkpoint.hpp"
#include "serve/event_log.hpp"
#include "serve/job_spec.hpp"
#include "serve/status.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"

namespace {

namespace fs = std::filesystem;
namespace core = dvs::core;
namespace fleet = dvs::fleet;
namespace obs = dvs::obs;
namespace serve = dvs::serve;
using Clock = std::chrono::steady_clock;

/// fleet_mix runs the fleet_smoke population at this size and parallelism.
constexpr std::size_t kFleetDevices = 4096;
constexpr std::size_t kFleetQuickDevices = 256;
constexpr int kFleetJobs = 2;
/// Small shards give the per-shard latency percentiles enough samples.
constexpr std::size_t kFleetShard = 64;
/// Devices replayed one by one in the traced fleet run.
constexpr std::size_t kFleetSample = 512;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// This process's peak resident set.  VmHWM, not getrusage: on Linux
/// ru_maxrss also counts the parent's memory from before the exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Linear interpolation between closest ranks; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// The flat JSON object a driver mode prints as its last line.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    field(key, quoted + "\"");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

// ---- per-layer accounting ---------------------------------------------------

/// Layer times and counts summed over every engine run of one traced
/// measurement (seconds; divided by their bases only when printed).
struct Layers {
  double arrival_s = 0.0;
  double decode_start_s = 0.0;
  double decode_done_s = 0.0;  ///< self time: governor excluded
  double governor_s = 0.0;
  double dpm_idle_s = 0.0;
  double other_spans_s = 0.0;  ///< power_sample + telemetry_snapshot
  double dispatch_s = 0.0;     ///< engine root self: kernel heap + dispatch
  std::uint64_t arrival_calls = 0;
  std::uint64_t decode_calls = 0;
  std::uint64_t idle_calls = 0;

  std::uint64_t runs = 0;
  std::uint64_t frames = 0;  ///< decoded + dropped
  std::uint64_t switches = 0;
  std::uint64_t idle_periods = 0;

  double construct_s = 0.0;  ///< Engine constructor
  std::uint64_t constructs = 0;

  void add_profile(obs::SpanProfiler& prof) {
    prof.finalize();
    const auto& nodes = prof.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const int id = static_cast<int>(i);
      const double self = prof.node_self_s(id);
      const std::string& n = nodes[i].name;
      if (i == 0) {
        dispatch_s += self;
      } else if (n == "arrival") {
        arrival_s += self;
        arrival_calls += nodes[i].calls;
      } else if (n == "decode_start") {
        decode_start_s += self;
      } else if (n == "decode_done") {
        decode_done_s += self;
        decode_calls += nodes[i].calls;
      } else if (n == "governor") {
        governor_s += self;
      } else if (n == "dpm_idle") {
        dpm_idle_s += self;
        idle_calls += nodes[i].calls;
      } else {
        other_spans_s += self;
      }
    }
  }

  void add_run(const core::Metrics& m) {
    ++runs;
    frames += m.frames_decoded + m.frames_dropped;
    switches += static_cast<std::uint64_t>(m.cpu_switches);
    idle_periods += static_cast<std::uint64_t>(m.dpm_idle_periods);
  }

  [[nodiscard]] double span_self_s() const {
    return arrival_s + decode_start_s + decode_done_s + governor_s +
           dpm_idle_s + other_spans_s + dispatch_s;
  }

  /// The engine-layer metrics shared by every workload's traced run.
  void write(JsonOut& j) const {
    j.num("core.arrival_self_ns", 1e9 * ratio(arrival_s, arrival_calls));
    j.count("core.arrival_frames", arrival_calls);
    j.num("core.decode_self_ns",
          1e9 * ratio(decode_start_s + decode_done_s, decode_calls));
    j.num("policy.governor_self_ns", 1e9 * ratio(governor_s, decode_calls));
    j.count("core.decoded_frames", decode_calls);
    j.num("dpm.idle_self_ns", 1e9 * ratio(dpm_idle_s, idle_calls));
    j.count("dpm.idle_spans", idle_calls);
    j.num("sim.dispatch_ns", 1e9 * ratio(dispatch_s, frames));
    j.count("sim.frames", frames);
    j.num("core.engine_construct_us", 1e6 * ratio(construct_s, constructs));
    j.count("core.constructs", constructs);
    j.num("dpm.idle_periods", ratio(idle_periods, runs));
    j.num("policy.freq_switches", ratio(switches, runs));
    j.count("core.runs", runs);
  }
};

/// Builds and runs one engine outside run_items so that construction is
/// timed apart from the run.  A null `prof` runs untraced.
core::Metrics replay_engine(core::RunOptions opts,
                            std::vector<core::PlaybackItem> items,
                            obs::SpanProfiler* prof, Layers& layers) {
  opts.profiler = prof;
  core::EngineConfig cfg = core::to_engine_config(opts);
  const auto t0 = Clock::now();
  core::Engine engine{std::move(cfg), std::move(items)};
  layers.construct_s += since(t0);
  ++layers.constructs;
  const core::Metrics m = engine.run();
  layers.add_run(m);
  return m;
}

/// Cold characterization time of every distinct change-point config, in
/// seconds.  Clears the process-wide cache first (and leaves it warm).
double time_threshold_tables(const std::vector<dvs::detect::ChangePointConfig>& cfgs) {
  dvs::detect::clear_threshold_table_cache();
  const auto t0 = Clock::now();
  for (const auto& c : cfgs) (void)dvs::detect::shared_threshold_table(c);
  return since(t0);
}

// ---- sweep replay -------------------------------------------------------------

/// Replays every point of `spec` outside the runner: shared assets (timed as
/// the workload layer), run options, engine construction (timed) and the
/// run, profiled when `prof` is set.  Returns the trace-build seconds.
double replay_points(const core::ScenarioSpec& spec, obs::SpanProfiler* prof,
                     Layers& layers, bool collect_quantiles) {
  const std::vector<core::RunPoint> points = spec.expand();
  core::DetectorFactoryConfig detector_cfg = spec.detector_cfg;
  detector_cfg.prepare();
  std::map<std::string, core::CpuAsset> cpus;
  for (const std::string& name : spec.cpus) {
    cpus.emplace(name, core::build_cpu_asset(name));
  }
  using Key = std::tuple<std::size_t, std::size_t, int, std::size_t>;
  std::map<Key, core::WorkloadAsset> assets;
  double build_s = 0.0;
  for (const core::RunPoint& p : points) {
    const Key key{p.workload_idx, p.cpu_idx, p.replicate, p.fault_idx};
    if (assets.count(key) != 0) continue;
    const auto t0 = Clock::now();
    assets.emplace(key, core::build_workload_asset(p.workload, cpus.at(p.cpu).cpu,
                                                   p.trace_seed, p.faults,
                                                   p.fault_seed));
    build_s += since(t0);
  }
  for (const core::RunPoint& p : points) {
    const core::WorkloadAsset& asset =
        assets.at(Key{p.workload_idx, p.cpu_idx, p.replicate, p.fault_idx});
    core::RunOptions opts =
        core::assemble_run_options(p, cpus.at(p.cpu), asset.idle, detector_cfg);
    obs::MetricsRegistry reg;
    if (collect_quantiles) opts.metrics = &reg;
    replay_engine(std::move(opts), *asset.items, prof, layers);
  }
  return build_s;
}

// ---- fleet replay -------------------------------------------------------------

/// The fleet runner's shared assets, rebuilt outside it so single devices
/// can be replayed through device_plan, assemble_run_options and the engine.
class FleetReplay {
 public:
  explicit FleetReplay(const fleet::FleetSpec& spec)
      : spec_(spec), cpu_(core::build_cpu_asset(spec.cpu)) {
    detector_cfg_ = spec.detector_cfg;
    detector_cfg_.prepare();
    wave_ = spec.wave.fraction > 0.0 ? dvs::fault::find_fault(spec.wave.fault)
                                     : nullptr;
    const std::size_t W = spec.workloads.size();
    const std::size_t V = spec.trace_variants;
    assets_.resize(W * V * 2);
    const auto t0 = Clock::now();
    for (std::size_t w = 0; w < W; ++w) {
      const core::WorkloadSpec& ws = spec.workloads[w].workload;
      targets_.push_back(spec.delay_target.value() > 0.0
                             ? spec.delay_target
                             : ws.default_delay_target());
      for (std::size_t v = 0; v < V; ++v) {
        const std::uint64_t seed = fleet::fleet_trace_seed(spec, w, v);
        assets_[(w * V + v) * 2] = core::build_workload_asset(
            ws, cpu_.cpu, seed, dvs::fault::FaultSpec{}, 0);
        if (wave_ != nullptr) {
          assets_[(w * V + v) * 2 + 1] = core::build_workload_asset(
              ws, cpu_.cpu, seed, *wave_, fleet::fleet_fault_seed(spec, w, v));
        }
      }
    }
    build_s_ = since(t0);
  }

  [[nodiscard]] double build_s() const { return build_s_; }

  struct Device {
    double total_s = 0.0;
    double plan_s = 0.0;   ///< device_plan + assemble_run_options
    double scale_s = 0.0;  ///< FrameTrace::rate_scaled copies (jittered only)
    bool jittered = false;
  };

  Device run(std::uint64_t id, obs::SpanProfiler* prof, Layers& layers) const {
    Device d;
    const auto t0 = Clock::now();
    const fleet::DevicePlan plan = fleet::device_plan(spec_, id);
    const bool faulted = plan.in_wave && wave_ != nullptr;
    const core::WorkloadAsset& asset =
        assets_[(plan.workload_idx * spec_.trace_variants + plan.variant) * 2 +
                (faulted ? 1 : 0)];
    core::RunAssembly a;
    a.detector = spec_.detector;
    a.policy = spec_.policies[plan.policy_idx].policy;
    a.delay_target = targets_[plan.workload_idx];
    a.service_cv2 = spec_.service_cv2;
    a.dpm = spec_.dpm;
    a.engine_seed = plan.engine_seed;
    if (faulted) a.faults = wave_;
    core::RunOptions opts =
        core::assemble_run_options(a, cpu_, asset.idle, detector_cfg_);
    opts.flight_recorder = false;  // as FleetRunner runs its devices
    d.plan_s = since(t0);

    std::vector<core::PlaybackItem> items;
    if (plan.rate_scale != 1.0) {
      d.jittered = true;
      const auto ts = Clock::now();
      items.reserve(asset.items->size());
      for (const core::PlaybackItem& item : *asset.items) {
        items.push_back(core::PlaybackItem{
            item.trace.rate_scaled(plan.rate_scale), item.decoder,
            dvs::hertz(item.nominal_arrival.value() * plan.rate_scale),
            item.nominal_service_at_max,
            dvs::seconds(item.end.value() / plan.rate_scale)});
      }
      d.scale_s = since(ts);
    } else {
      items = *asset.items;
    }
    replay_engine(std::move(opts), std::move(items), prof, layers);
    d.total_s = since(t0);
    return d;
  }

 private:
  fleet::FleetSpec spec_;
  core::CpuAsset cpu_;
  core::DetectorFactoryConfig detector_cfg_;
  const dvs::fault::FaultSpec* wave_ = nullptr;
  std::vector<core::WorkloadAsset> assets_;
  std::vector<dvs::Seconds> targets_;
  double build_s_ = 0.0;
};

// ---- workloads ----------------------------------------------------------------

/// The paper's Tables 3/4/5 with base seeds derived from the workload seed.
std::vector<core::ScenarioSpec> paper_specs(std::uint64_t seed) {
  std::vector<core::ScenarioSpec> specs;
  for (const char* name : {"table3", "table4", "table5"}) {
    core::ScenarioSpec s = *core::find_scenario(name);
    s.base_seed = core::mix_seed(seed, s.base_seed);
    specs.push_back(std::move(s));
  }
  return specs;
}

/// One unit of a scenario: its first workload under the change-point
/// detector and its last DPM setting, which between them touch every cold
/// process-wide cache a full pass uses.
core::ScenarioSpec one_unit(core::ScenarioSpec s) {
  s.workloads.resize(1);
  s.detectors = {core::DetectorKind::ChangePoint};
  s.dpm = {s.dpm.back()};
  s.replicates = 1;
  return s;
}

fleet::FleetSpec mix_fleet(std::uint64_t seed, std::size_t devices) {
  fleet::FleetSpec f = *fleet::find_fleet("fleet_smoke");
  f.fleet_seed = core::mix_seed(seed, f.fleet_seed);
  f.num_devices = devices;
  return f;
}

/// Moves the process to the next CPU (or CPUs) of its allowed set before
/// every pass, so a run's passes sample every CPU rather than the one the
/// scheduler happened to pick: on a shared host, other tenants' load slows
/// one CPU at a time.  Threads a pass starts inherit the mask.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t width) : width_(width) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (turn_ != 0) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

  void next() {
    if (cpus_.size() <= width_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = 0; i < width_; ++i) {
      CPU_SET(cpus_[(turn_ + i) % cpus_.size()], &set);
    }
    ++turn_;
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::size_t width_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

struct PassOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t frames = 0;
  std::size_t units = 0;
  std::size_t failed = 0;
  std::vector<double> unit_ms;
  std::vector<double> part_s;  ///< wall per scenario (sweep) or run (fleet)
  double unit_s = 0.0;  ///< summed per-unit engine time (sweep)
  double fold_s = 0.0;  ///< last on_shard to run() return (fleet)
};

/// sweep_paper: Tables 3, 4 and 5 back to back through SweepRunner at
/// jobs=1.  The first pass's CSVs are the reference every later pass must
/// reproduce row for row.
class SweepBench {
 public:
  SweepBench(std::vector<core::ScenarioSpec> specs, std::string out)
      : specs_(std::move(specs)), out_(std::move(out)) {}

  [[nodiscard]] const std::vector<core::ScenarioSpec>& specs() const {
    return specs_;
  }

  PassOutcome pass(obs::SpanProfiler* prof) {
    PassOutcome o;
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      const core::ScenarioSpec& spec = specs_[k];
      std::vector<Clock::time_point> started(spec.num_points());
      core::SweepOptions so;
      so.jobs = 1;
      so.configure_run = [&](const core::RunPoint& p, core::RunOptions& r) {
        r.profiler = prof;
        started[p.index] = Clock::now();
      };
      so.on_point = [&](const core::PointResult& pr) {
        const double s = since(started[pr.point.index]);
        o.unit_ms.push_back(1e3 * s);
        o.unit_s += s;
      };
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      core::SweepResult res;
      try {
        res = core::SweepRunner{so}.run(spec);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", spec.name.c_str(),
                     e.what());
        o.units += spec.num_points();
        o.failed += spec.num_points();
        continue;
      }
      o.part_s.push_back(since(t0));
      o.wall_s += o.part_s.back();
      o.cpu_s += cpu_seconds() - cpu0;
      for (const core::PointResult& pr : res.points) {
        o.frames += pr.metrics.frames_decoded + pr.metrics.frames_dropped;
      }
      o.units += res.points.size();
      o.failed += check(k, res);
    }
    return o;
  }

 private:
  /// Points whose points-CSV row or cell row differs from the first pass.
  std::size_t check(std::size_t k, const core::SweepResult& res) {
    const bool first = reference_.size() <= k;
    const std::string dir = out_ + (first ? "/first/" : "/last/");
    const std::string points_path = dir + specs_[k].name + "_points.csv";
    const std::string cells_path = dir + specs_[k].name + "_cells.csv";
    {
      dvs::CsvWriter csv{points_path};
      res.write_points_csv(csv);
    }
    {
      dvs::CsvWriter csv{cells_path};
      res.write_cells_csv(csv);
    }
    std::pair<std::vector<std::string>, std::vector<std::string>> now{
        split_lines(read_file(points_path)), split_lines(read_file(cells_path))};
    if (first) {
      reference_.push_back(std::move(now));
      return 0;
    }
    const auto& [ref_points, ref_cells] = reference_[k];
    const auto same = [](const std::vector<std::string>& a,
                         const std::vector<std::string>& b, std::size_t i) {
      return i < a.size() && i < b.size() && a[i] == b[i];
    };
    std::size_t failed = 0;
    for (std::size_t i = 0; i < res.points.size(); ++i) {
      const std::size_t cell = res.points[i].point.cell;
      if (!same(now.first, ref_points, i + 1) ||
          !same(now.second, ref_cells, cell + 1) ||
          now.first.size() != ref_points.size()) {
        ++failed;
      }
    }
    return failed;
  }

  std::vector<core::ScenarioSpec> specs_;
  std::string out_;
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      reference_;
};

/// Everything one fleet shard contributes to the fold, as exact text.
std::string shard_digest(const fleet::FleetShardPartial& part) {
  std::ostringstream os;
  os << std::hexfloat << part.frames_total;
  for (const fleet::FleetGroupResult& g : part.groups) {
    os << ';' << g.devices << ',' << g.wave_devices << ',' << g.energy_j << ','
       << g.frames_decoded << ',' << g.frames_dropped << ',' << g.faults_injected
       << ',' << g.sum_mean_delay_s << ',';
    g.delay_sketch.write_text(os);
    g.energy_sketch.write_text(os);
    g.dropped_sketch.write_text(os);
  }
  return os.str();
}

/// fleet_mix: a fleet_smoke slice through FleetRunner at jobs=2.  Every
/// shard must reproduce the first pass's partial, and the CSV its bytes.
class FleetBench {
 public:
  FleetBench(fleet::FleetSpec spec, std::string out)
      : spec_(std::move(spec)), out_(std::move(out)) {}

  [[nodiscard]] const fleet::FleetSpec& spec() const { return spec_; }

  PassOutcome pass() {
    PassOutcome o;
    const std::size_t shards = (spec_.num_devices + kFleetShard - 1) / kFleetShard;
    std::vector<std::string> digests(shards);
    std::map<std::thread::id, Clock::time_point> last_on_thread;
    Clock::time_point last_shard = Clock::now();
    fleet::FleetOptions fo;
    fo.jobs = kFleetJobs;
    fo.shard_size = kFleetShard;
    // Serialized by the runner.  A shard's latency is the time since the
    // same worker finished its previous shard; each worker's first shard
    // also carries the pass set-up and is left out.
    fo.on_shard = [&](std::size_t shard, const fleet::FleetShardPartial& part) {
      const auto now = Clock::now();
      const auto it = last_on_thread.find(std::this_thread::get_id());
      if (it != last_on_thread.end()) {
        o.unit_ms.push_back(
            1e3 * std::chrono::duration<double>(now - it->second).count());
      }
      last_on_thread[std::this_thread::get_id()] = now;
      digests[shard] = shard_digest(part);
      last_shard = now;
    };
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    fleet::FleetResult res;
    try {
      res = fleet::FleetRunner{fo}.run(spec_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: fleet failed: %s\n", e.what());
      o.units = o.failed = shards;
      return o;
    }
    o.fold_s = since(last_shard);
    o.wall_s = since(t0);
    o.part_s.push_back(o.wall_s);
    o.cpu_s = cpu_seconds() - cpu0;
    o.frames = res.frames_total;
    o.units = shards;

    const bool first = reference_digests_.empty();
    const std::string path = out_ + (first ? "/first/" : "/last/") + "fleet.csv";
    {
      dvs::CsvWriter csv{path};
      res.write_csv(csv);
    }
    const std::string text = read_file(path);
    if (first) {
      reference_digests_ = std::move(digests);
      reference_csv_ = text;
      return o;
    }
    if (text != reference_csv_) {
      o.failed = shards;  // the fold itself went wrong: nothing it made holds
      return o;
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (digests[s] != reference_digests_[s]) ++o.failed;
    }
    return o;
  }

 private:
  fleet::FleetSpec spec_;
  std::string out_;
  std::vector<std::string> reference_digests_;
  std::string reference_csv_;
};

// ---- modes ----------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< measuring time; required by `measure`
  int trace = 0;
  bool quick = false;
  std::string out;
  std::string root;
  std::string jobs_dir;
};

/// One unit of each scenario (sweep_paper) or one shard (fleet_mix) in this
/// process, caches cold.  Returns its wall time.
double warm_up(const Args& a) {
  const auto t0 = Clock::now();
  if (a.workload == "sweep_paper") {
    for (const core::ScenarioSpec& s : paper_specs(a.seed)) {
      core::SweepOptions so;
      so.jobs = 1;
      (void)core::SweepRunner{so}.run(one_unit(s));
    }
  } else {
    fleet::FleetOptions fo;
    fo.jobs = kFleetJobs;
    fo.shard_size = kFleetShard;
    (void)fleet::FleetRunner{fo}.run(mix_fleet(a.seed, kFleetShard));
  }
  return since(t0);
}

/// The end-to-end numbers over the untraced passes, each a median over
/// passes.  Each scenario's (or the fleet run's) wall time is taken at its
/// median across passes, so frames_per_s is a whole pass's frames over the
/// sum of those.
void write_end_to_end(JsonOut& j, const std::vector<PassOutcome>& passes,
                      double setup_s) {
  std::vector<std::vector<double>> parts;
  std::vector<double> p50, p95, cpu_ms;
  std::size_t samples = 0;
  std::string per_pass;
  for (const PassOutcome& p : passes) {
    if (p.failed != 0) continue;  // a failed pass times nothing worth keeping
    parts.resize(std::max(parts.size(), p.part_s.size()));
    for (std::size_t k = 0; k < p.part_s.size(); ++k) parts[k].push_back(p.part_s[k]);
    p50.push_back(quantile(p.unit_ms, 0.5));
    p95.push_back(quantile(p.unit_ms, 0.95));
    cpu_ms.push_back(1e3 * ratio(p.cpu_s, static_cast<double>(p.units)));
    samples += p.unit_ms.size();
    per_pass += (per_pass.empty() ? "" : " ") +
                std::to_string(std::lround(static_cast<double>(p.frames) / p.wall_s));
  }
  double pass_s = 0.0;
  for (const std::vector<double>& w : parts) pass_s += median(w);
  const std::uint64_t frames = passes.empty() ? 0 : passes.front().frames;
  j.str("pass_frames_per_s", per_pass);
  j.num("setup_s", setup_s);
  j.num("frames_per_s", ratio(static_cast<double>(frames), pass_s));
  j.num("pass_wall_s", pass_s);
  j.count("passes", passes.size());
  j.count("frames_per_pass", frames);
  j.num("job_turnaround_p50_ms", median(p50));
  j.num("job_turnaround_p95_ms", median(p95));
  j.count("job_turnaround_samples", samples);
  j.num("cpu_ms_per_job", median(cpu_ms));
}

int cmd_setup(const Args& a) {
  JsonOut j;
  j.num("setup_s", warm_up(a));
  j.num("peak_rss_mb", peak_rss_mb());
  std::cout << j.text() << std::endl;
  return 0;
}

int cmd_measure(const Args& a) {
  fs::create_directories(a.out + "/first");
  fs::create_directories(a.out + "/last");
  const double setup_s = warm_up(a);
  const bool sweep = a.workload == "sweep_paper";
  std::vector<core::ScenarioSpec> specs = paper_specs(a.seed);
  if (a.quick) {
    for (core::ScenarioSpec& s : specs) s = one_unit(s);
  }
  SweepBench sb{specs, a.out};
  FleetBench fb{mix_fleet(a.seed, a.quick ? kFleetQuickDevices : kFleetDevices),
                a.out};
  CpuRotation rotation{sweep ? std::size_t{1} : std::size_t{kFleetJobs}};
  const auto run_pass = [&](obs::SpanProfiler* prof) {
    rotation.next();
    return sweep ? sb.pass(prof) : fb.pass();
  };

  // Untraced passes (all of the run at --trace 0, the first 40% at 1).
  const std::size_t min_passes = a.quick ? 1 : 3;
  const double untraced_budget = a.trace != 0 ? 0.4 * a.seconds : a.seconds;
  const auto t0 = Clock::now();
  std::vector<PassOutcome> untraced;
  while (untraced.size() < (a.trace != 0 ? 1 : min_passes) ||
         since(t0) < untraced_budget) {
    untraced.push_back(run_pass(nullptr));
  }
  std::size_t attempted = 0, failed = 0;
  for (const PassOutcome& p : untraced) {
    attempted += p.units;
    failed += p.failed;
  }

  JsonOut j;
  write_end_to_end(j, untraced, setup_s);

  if (a.trace != 0) {
    Layers layers;
    std::vector<PassOutcome> traced;
    double unit_s = 0.0, fold_s = 0.0, cpu_s = 0.0;
    const dvs::detect::TableCacheStats tstats =
        dvs::detect::threshold_table_cache_stats();
    const dvs::dpm::SolveCacheStats sstats = dvs::dpm::tismdp_solve_cache_stats();
    if (sweep) {
      // Spans through RunOptions::profiler, per-point engine time from the
      // configure_run / on_point hooks.
      while (traced.empty() || since(t0) < a.seconds) {
        obs::SpanProfiler prof;
        traced.push_back(run_pass(&prof));
        layers.add_profile(prof);
      }
      // Engine runs are counted by the profiled passes; construction and
      // trace building come from one replay of a pass outside the runner.
      Layers replay;
      double build_s = 0.0;
      for (const core::ScenarioSpec& s : specs) {
        build_s += replay_points(s, nullptr, replay, false);
      }
      layers.construct_s = replay.construct_s;
      layers.constructs = replay.constructs;
      layers.runs = replay.runs;
      layers.frames = replay.frames;
      layers.switches = replay.switches;
      layers.idle_periods = replay.idle_periods;
      const double n = static_cast<double>(traced.size());
      std::vector<double> walls;
      for (const PassOutcome& p : traced) {
        walls.push_back(p.wall_s);
        unit_s += p.unit_s;
      }
      const double wall = sum(walls) / n;
      const double layer_s = layers.span_self_s() / n + build_s +
                             layers.construct_s;
      j.num("workload.trace_build_ms", 1e3 * build_s);
      j.num("core.sweep_overhead_pct", 100.0 * ratio(wall - unit_s / n, wall));
      std::vector<double> untraced_walls;
      for (const PassOutcome& p : untraced) untraced_walls.push_back(p.wall_s);
      const double base = median(untraced_walls);
      j.num("obs.trace_overhead_pct", 100.0 * ratio(median(walls) - base, base));
      j.num("bench.traced_wall_s", wall);
      j.num("bench.layer_sum_s", layer_s);
      j.num("bench.residual_pct", 100.0 * ratio(wall - layer_s, wall));
      // Spans were summed over n passes; rescale the per-frame bases.
      layers.arrival_calls = static_cast<std::uint64_t>(
          static_cast<double>(layers.arrival_calls) / n);
      layers.decode_calls =
          static_cast<std::uint64_t>(static_cast<double>(layers.decode_calls) / n);
      layers.idle_calls =
          static_cast<std::uint64_t>(static_cast<double>(layers.idle_calls) / n);
      for (double* s : {&layers.arrival_s, &layers.decode_start_s,
                        &layers.decode_done_s, &layers.governor_s,
                        &layers.dpm_idle_s, &layers.other_spans_s,
                        &layers.dispatch_s}) {
        *s /= n;
      }
      std::vector<dvs::detect::ChangePointConfig> cfgs;
      for (const core::ScenarioSpec& s : specs) cfgs.push_back(s.detector_cfg.change_point);
      j.num("detect.threshold_table_ms", 1e3 * time_threshold_tables(cfgs));
    } else {
      // The runner pass gives the fold and CPU utilisation; the layers come
      // from a device sample replayed one by one, untraced then traced.
      while (traced.empty() || since(t0) < 0.7 * a.seconds) {
        traced.push_back(run_pass(nullptr));
      }
      std::vector<double> walls;
      for (const PassOutcome& p : traced) {
        walls.push_back(p.wall_s);
        fold_s += p.fold_s;
        cpu_s += p.cpu_s;
      }
      const double wall = sum(walls) / static_cast<double>(traced.size());
      fold_s /= static_cast<double>(traced.size());
      const double cpu_util =
          ratio(cpu_s / static_cast<double>(traced.size()), kFleetJobs * wall);
      const FleetReplay replay{fb.spec()};
      const std::size_t devices = fb.spec().num_devices;
      const std::size_t step =
          std::max<std::size_t>(1, devices / (a.quick ? 64 : kFleetSample));
      Layers untraced_layers;
      double untraced_s = 0.0;
      for (std::size_t id = 0; id < devices; id += step) {
        untraced_s += replay.run(id, nullptr, untraced_layers).total_s;
      }
      obs::SpanProfiler prof;
      std::vector<double> device_us;
      double traced_s = 0.0, plan_s = 0.0, scale_s = 0.0;
      std::size_t jittered = 0;
      for (std::size_t id = 0; id < devices; id += step) {
        const FleetReplay::Device d = replay.run(id, &prof, layers);
        device_us.push_back(1e6 * d.total_s);
        traced_s += d.total_s;
        plan_s += d.plan_s;
        scale_s += d.scale_s;
        if (d.jittered) ++jittered;
      }
      layers.add_profile(prof);
      const double sample = static_cast<double>(device_us.size());
      const double per_device =
          (layers.span_self_s() + layers.construct_s + plan_s + scale_s) / sample;
      const double layer_s =
          per_device * static_cast<double>(devices) / kFleetJobs +
          replay.build_s() + fold_s;
      j.num("workload.trace_build_ms", 1e3 * replay.build_s());
      j.num("workload.rate_scale_us", 1e6 * ratio(scale_s, jittered));
      j.count("workload.jittered_devices", jittered);
      j.num("fleet.device_us_p50", quantile(device_us, 0.5));
      j.num("fleet.device_us_p95", quantile(device_us, 0.95));
      j.count("fleet.device_samples", device_us.size());
      j.num("fleet.plan_us", 1e6 * plan_s / sample);
      j.num("fleet.cpu_util", cpu_util);
      j.num("fleet.fold_ms", 1e3 * fold_s);
      j.num("obs.trace_overhead_pct", 100.0 * ratio(traced_s - untraced_s, untraced_s));
      j.num("bench.traced_wall_s", wall);
      j.num("bench.layer_sum_s", layer_s);
      j.num("bench.residual_pct", 100.0 * ratio(wall - layer_s, wall));
      j.num("detect.threshold_table_ms",
            1e3 * time_threshold_tables({fb.spec().detector_cfg.change_point}));
    }
    for (const PassOutcome& p : traced) {
      attempted += p.units;
      failed += p.failed;
    }
    layers.write(j);
    j.count("detect.table_cache_misses", tstats.misses);
    j.count("dpm.tismdp_cache_misses", sstats.misses);
  }
  j.num("peak_rss_mb", peak_rss_mb());
  j.count("attempted", attempted);
  j.count("failed", failed);
  std::cout << j.text() << std::endl;
  return 0;
}

// ---- serve probe ----------------------------------------------------------------

/// Replays one cycle of the serve job mix in process (the daemon's engine
/// work, traced when `prof` is set).  Checkpoint-able units are captured
/// for the append timings.
struct MixReplay {
  Layers layers;
  double build_s = 0.0;
  std::vector<std::pair<core::Metrics, obs::QuantileSketch>> points;
  std::vector<fleet::FleetShardPartial> shards;
  std::vector<dvs::detect::ChangePointConfig> cfgs;
};

void replay_job(const serve::JobSpec& spec, obs::SpanProfiler* prof,
                MixReplay& mix, bool capture) {
  switch (spec.kind) {
    case serve::JobKind::Run: {
      // The run job's mp3 path as serve's job runner takes it.
      const serve::RunJob& r = spec.run;
      if (r.media != "mp3" || r.session || !r.faults.empty()) {
        throw std::invalid_argument("serve-probe replays plain mp3 run jobs only");
      }
      const core::CpuAsset cpu = core::build_cpu_asset("sa1100");
      const std::uint64_t seed = spec.seed_set ? spec.seed : 1;
      core::DetectorFactoryConfig detector_cfg;
      core::RunAssembly as;
      as.detector = serve::resolve_detector(r.detector);
      if (as.detector == core::DetectorKind::ChangePoint) detector_cfg.prepare();
      if (!r.policy.empty()) as.policy = r.policy;
      as.service_cv2 = r.cv2;
      as.dpm.kind = *core::dpm_kind_from_string(r.dpm);
      as.dpm.max_delay = dvs::seconds(r.dpm_delay);
      as.engine_seed = seed;
      as.delay_target = dvs::seconds(r.delay > 0.0 ? r.delay : 0.15);
      const auto t0 = Clock::now();
      const dvs::workload::DecoderModel dec =
          dvs::workload::reference_mp3_decoder(cpu.cpu.max_frequency());
      dvs::Rng rng{seed};
      dvs::workload::FrameTrace trace = dvs::workload::build_mp3_trace(
          dvs::workload::mp3_sequence(r.sequence), dec, rng);
      mix.build_s += since(t0);
      core::RunOptions opts = core::assemble_run_options(
          as, cpu, core::default_idle_distribution(), detector_cfg);
      obs::MetricsRegistry reg;
      opts.metrics = &reg;
      const dvs::Seconds end = trace.duration();
      const dvs::workload::MediaType type = trace.type();
      std::vector<core::PlaybackItem> items;
      items.push_back(core::PlaybackItem{std::move(trace), dec,
                                         core::default_nominal_arrival(type),
                                         core::default_nominal_service(type), end});
      replay_engine(std::move(opts), std::move(items), prof, mix.layers);
      mix.cfgs.push_back(detector_cfg.change_point);
      break;
    }
    case serve::JobKind::Sweep: {
      core::ScenarioSpec s = *spec.spec_scenario();
      if (spec.sweep.replicates > 0) s.replicates = spec.sweep.replicates;
      if (spec.seed_set) s.base_seed = spec.seed;
      if (!spec.sweep.faults.empty() || !spec.sweep.policy.empty()) {
        throw std::invalid_argument("serve-probe replays plain sweep jobs only");
      }
      mix.build_s += replay_points(s, prof, mix.layers, true);
      mix.cfgs.push_back(s.detector_cfg.change_point);
      if (capture) {
        core::SweepOptions so;
        so.collect_quantiles = true;
        so.on_point_checkpoint = [&](const core::RunPoint&, const core::Metrics& m,
                                     const obs::QuantileSketch& sk) {
          mix.points.emplace_back(m, sk);
        };
        (void)core::SweepRunner{so}.run(s);
      }
      break;
    }
    case serve::JobKind::Fleet: {
      fleet::FleetSpec f = *spec.spec_fleet();
      if (spec.fleet.devices > 0) f.num_devices = spec.fleet.devices;
      if (spec.seed_set) f.fleet_seed = spec.seed;
      const FleetReplay replay{f};
      mix.build_s += replay.build_s();
      for (std::size_t id = 0; id < f.num_devices; ++id) {
        replay.run(id, prof, mix.layers);
      }
      mix.cfgs.push_back(f.detector_cfg.change_point);
      if (capture) {
        fleet::FleetOptions fo;
        if (spec.fleet.shard_size > 0) fo.shard_size = spec.fleet.shard_size;
        fo.on_shard = [&](std::size_t, const fleet::FleetShardPartial& part) {
          mix.shards.push_back(part);
        };
        (void)fleet::FleetRunner{fo}.run(f);
      }
      break;
    }
  }
}

/// Mean seconds per call of `fn` over `reps` calls.
template <typename Fn>
double time_per_call(int reps, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn(i);
  return since(t0) / reps;
}

int cmd_serve_probe(const Args& a) {
  const std::string probe = a.out + "/probe";
  fs::create_directories(probe);
  std::vector<std::string> job_files;
  for (const auto& e : fs::directory_iterator(a.jobs_dir)) {
    if (e.path().extension() == ".json") job_files.push_back(e.path().string());
  }
  std::sort(job_files.begin(), job_files.end());
  if (job_files.empty()) throw std::runtime_error("no job specs in " + a.jobs_dir);

  JsonOut j;
  // Status first: the daemon's own cache counters.
  const serve::ServeStatus status = serve::load_status(a.root + "/status.json");
  j.count("detect.table_cache_misses", status.table_cache.misses);
  j.count("dpm.tismdp_cache_misses", status.solve_cache.misses);

  std::vector<serve::JobSpec> specs;
  const double parse_s = time_per_call(20, [&](int rep) {
    for (const std::string& f : job_files) {
      serve::JobSpec s = serve::JobSpec::parse_file(f);
      if (rep == 0) specs.push_back(std::move(s));
    }
  });
  j.num("serve.job_parse_us", 1e6 * parse_s / static_cast<double>(job_files.size()));

  // The job mix: once to warm the caches and capture checkpoint-able units,
  // then untraced and traced for the engine layers and tracing overhead.
  MixReplay captured;
  for (const serve::JobSpec& s : specs) replay_job(s, nullptr, captured, true);
  MixReplay untraced_mix;
  const auto tu = Clock::now();
  for (const serve::JobSpec& s : specs) replay_job(s, nullptr, untraced_mix, false);
  const double untraced_s = since(tu);
  MixReplay mix;
  obs::SpanProfiler prof;
  const auto tt = Clock::now();
  for (const serve::JobSpec& s : specs) replay_job(s, &prof, mix, false);
  const double traced_s = since(tt);
  mix.layers.add_profile(prof);
  mix.layers.write(j);
  const double layer_s = mix.layers.span_self_s() + mix.layers.construct_s + mix.build_s;
  j.num("workload.trace_build_ms", 1e3 * mix.build_s);
  j.num("obs.trace_overhead_pct", 100.0 * ratio(traced_s - untraced_s, untraced_s));
  j.num("bench.replay_wall_s", traced_s);
  j.num("bench.replay_layer_sum_s", layer_s);

  // Timed calls to the serve layer's public functions.
  std::vector<double> refold;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    obs::write_openmetrics_atomic(serve::collect_daemon_metrics(a.root),
                                  probe + "/metrics.om");
    refold.push_back(since(t0));
  }
  j.num("serve.metrics_refold_ms", 1e3 * median(refold));
  j.num("serve.status_write_us", 1e6 * time_per_call(200, [&](int) {
          serve::write_status_atomic(status, probe + "/status.json");
        }));
  {
    serve::EventLog log{probe + "/events.jsonl"};
    j.num("serve.event_append_us", 1e6 * time_per_call(200, [&](int i) {
            log.job_claimed("probe-" + std::to_string(i));
          }));
  }
  {
    // As the daemon checkpoints: one flushed record per unit.
    serve::CheckpointWriter points{probe + "/sweep.ckpt.jsonl", "probe", "sweep", 1};
    serve::CheckpointWriter shards{probe + "/fleet.ckpt.jsonl", "probe", "fleet", 1};
    const auto& up = captured.points;
    const auto& us = captured.shards;
    const int reps = 100;
    const auto t0 = Clock::now();
    std::size_t appends = 0;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < up.size(); ++i, ++appends) {
        points.append_point(i, up[i].first, up[i].second);
      }
      for (std::size_t i = 0; i < us.size(); ++i, ++appends) {
        shards.append_shard(i, us[i]);
      }
    }
    j.num("serve.checkpoint_append_us",
          1e6 * ratio(since(t0), static_cast<double>(appends)));
  }
  j.num("detect.threshold_table_ms", 1e3 * time_threshold_tables(mix.cfgs));
  std::cout << j.text() << std::endl;
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver setup <sweep_paper|fleet_mix> "
               "--seed N [--quick]\n"
               "       perfbench_driver measure <sweep_paper|fleet_mix> "
               "--seed N --seconds S --out DIR [--trace 0|1 --quick]\n"
               "       perfbench_driver serve-probe --root SPOOL --jobs-dir DIR "
               "--out DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing mode");
  a.mode = argv[1];
  int i = 2;
  if (a.mode == "setup" || a.mode == "measure") {
    if (argc < 3) usage("missing workload");
    a.workload = argv[2];
    if (a.workload != "sweep_paper" && a.workload != "fleet_mix") {
      usage("unknown workload " + a.workload);
    }
    i = 3;
  } else if (a.mode != "serve-probe") {
    usage("unknown mode " + a.mode);
  }
  for (; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--out") a.out = value();
    else if (k == "--root") a.root = value();
    else if (k == "--jobs-dir") a.jobs_dir = value();
    else if (k == "--quick") a.quick = true;
    else usage("unknown option " + k);
  }
  if ((a.mode == "measure" || a.mode == "serve-probe") && a.out.empty()) {
    usage("--out is required");
  }
  if (a.mode == "measure" && !(a.seconds > 0.0)) usage("--seconds is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.mode == "setup") return cmd_setup(a);
    if (a.mode == "measure") return cmd_measure(a);
    return cmd_serve_probe(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
