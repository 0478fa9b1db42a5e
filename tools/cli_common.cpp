#include "cli_common.hpp"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace dvs::cli {

void usage(const char* msg) {
  std::fprintf(stderr,
               "dvs_sim: %s\n"
               "usage: dvs_sim run|sweep|fleet|serve|report|list [options] "
               "(see the header of tools/dvs_sim_cli.cpp)\n",
               msg);
  std::exit(2);
}

const char* flag_value(int argc, char** argv, int i) {
  if (i + 1 >= argc) usage("missing argument value");
  return argv[i + 1];
}

std::uint64_t parse_count(const std::string& flag, const char* text,
                          std::uint64_t max) {
  const char* end = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || stop != end || v > max) {
    usage((flag + " needs an integer from 0 to " + std::to_string(max) +
           ", got '" + text + "'")
              .c_str());
  }
  return v;
}

double parse_number(const std::string& flag, const char* text) {
  const char* end = text + std::strlen(text);
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || stop != end || !std::isfinite(v)) {
    usage((flag + " needs a number, got '" + text + "'").c_str());
  }
  return v;
}

CliOptions parse_flags(int argc, char** argv, int first, serve::JobKind kind) {
  CliOptions o;
  serve::JobSpec& job = o.job;
  job.kind = kind;
  job.jobs = 1;
  serve::RunJob& run = job.run;
  // --faults and --policy override the sweep's axes or configure the run;
  // a fleet reads neither, so there they land in the unread run section.
  const bool sweep = kind == serve::JobKind::Sweep;
  std::string& faults = sweep ? job.sweep.faults : run.faults;
  std::string& policy = sweep ? job.sweep.policy : run.policy;
  const auto need = [&](int i) { return flag_value(argc, argv, i); };
  const auto count = [&](const std::string& flag, int i, std::uint64_t max) {
    return parse_count(flag, need(i), max);
  };
  const auto int_count = [&](const std::string& flag, int i) {
    return static_cast<int>(parse_count(flag, need(i), INT_MAX));
  };
  const auto number = [&](const std::string& flag, int i) {
    return parse_number(flag, need(i));
  };
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--media") { run.media = need(i); ++i; }
    else if (a == "--sequence") { run.sequence = need(i); ++i; }
    else if (a == "--clip") { run.clip = need(i); ++i; }
    else if (a == "--seconds") { run.seconds = number(a, i); ++i; }
    else if (a == "--session") { run.session = true; }
    else if (a == "--cycles") { run.cycles = int_count(a, i); ++i; }
    else if (a == "--detector") { run.detector = need(i); ++i; }
    else if (a == "--policy") { policy = need(i); ++i; }
    else if (a == "--ema-gain") { o.ema_gain = number(a, i); ++i; }
    else if (a == "--delay") { run.delay = number(a, i); ++i; }
    else if (a == "--cv2") { run.cv2 = number(a, i); ++i; }
    else if (a == "--dpm") { run.dpm = need(i); ++i; }
    else if (a == "--dpm-delay") { run.dpm_delay = number(a, i); ++i; }
    else if (a == "--seed") { job.seed = count(a, i, UINT64_MAX); job.seed_set = true; ++i; }
    else if (a == "--scenario") { job.sweep.scenario = need(i); ++i; }
    else if (a == "--faults") { faults = need(i); ++i; }
    else if (a == "--jobs") { job.jobs = int_count(a, i); ++i; }
    else if (a == "--devices") { job.fleet.devices = count(a, i, SIZE_MAX); ++i; }
    else if (a == "--fleet-csv") { o.fleet_csv = need(i); ++i; }
    else if (a == "--shard-size") { job.fleet.shard_size = count(a, i, SIZE_MAX); ++i; }
    else if (a == "--replicates") { job.sweep.replicates = int_count(a, i); ++i; }
    else if (a == "--sweep-csv") { o.sweep_csv = need(i); ++i; }
    else if (a == "--save-trace") { o.save_trace = need(i); ++i; }
    else if (a == "--load-trace") { o.load_trace = need(i); ++i; }
    else if (a == "--power-csv") { o.power_csv = need(i); ++i; }
    else if (a == "--trace-jsonl") { o.trace_jsonl = need(i); ++i; }
    else if (a == "--trace-csv") { o.trace_csv = need(i); ++i; }
    else if (a == "--chrome-trace") { o.chrome_trace = need(i); ++i; }
    else if (a == "--metrics-json") { o.metrics_json = need(i); ++i; }
    else if (a == "--ledger-json") { o.ledger_json = need(i); ++i; }
    else if (a == "--flight-dump") { o.flight_dump = need(i); ++i; }
    else if (a == "--flight-dump-dir") { o.flight_dump_dir = need(i); ++i; }
    else if (a == "--flight-capacity") {
      o.flight_capacity = count(a, i, SIZE_MAX); ++i;
    }
    else if (a == "--no-flight-recorder") { o.no_flight = true; }
    else if (a == "--telemetry-jsonl") { o.telemetry_jsonl = need(i); ++i; }
    else if (a == "--telemetry-every") { o.telemetry_every = number(a, i); ++i; }
    else if (a == "--metrics-openmetrics") { o.metrics_openmetrics = need(i); ++i; }
    else if (a == "--self-profile") { o.self_profile = need(i); ++i; }
    else if (a == "--serve-root") { o.serve_root = need(i); ++i; }
    else if (a == "--help" || a == "-h") { usage("help requested"); }
    else { usage(("unknown option " + a).c_str()); }
  }
  return o;
}

void validate_job(const serve::JobSpec& job) {
  try {
    job.validate();
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

void print_metrics(std::FILE* out, const core::Metrics& m) {
  std::fprintf(out, "duration            %10.1f s\n", m.duration.value());
  std::fprintf(out, "energy              %10.1f J  (%.3f kJ)\n",
               m.total_energy.value(), m.energy_kj());
  std::fprintf(out, "  cpu+memory        %10.1f J\n", m.cpu_memory_energy().value());
  std::fprintf(out, "average power       %10.1f mW\n", m.average_power.value());
  std::fprintf(out, "frames              %10llu arrived, %llu decoded, %llu dropped\n",
               static_cast<unsigned long long>(m.frames_arrived),
               static_cast<unsigned long long>(m.frames_decoded),
               static_cast<unsigned long long>(m.frames_dropped));
  std::fprintf(out, "mean frame delay    %10.3f s  (max %.3f)\n",
               m.mean_frame_delay.value(), m.max_frame_delay.value());
  std::fprintf(out, "mean buffered       %10.2f frames\n", m.mean_buffered_frames);
  std::fprintf(out, "mean cpu frequency  %10.1f MHz  (%d switches)\n",
               m.mean_cpu_frequency.value(), m.cpu_switches);
  std::fprintf(out, "dpm                 %10d idle periods, %d sleeps, %d wakeups,"
               " %.2f s wakeup delay\n",
               m.dpm_idle_periods, m.dpm_sleeps, m.dpm_wakeups,
               m.dpm_total_wakeup_delay.value());
  if (m.faults_injected != 0 || m.watchdog_escalations != 0 ||
      m.watchdog_recoveries != 0) {
    std::fprintf(out, "faults              %10llu injected; watchdog:"
                 " %d escalations, %d recoveries, %.1f s degraded\n",
                 static_cast<unsigned long long>(m.faults_injected),
                 m.watchdog_escalations, m.watchdog_recoveries,
                 m.time_in_degraded.value());
  }
}

bool write_document(const std::string& path, const char* what,
                    std::FILE* hout,
                    const std::function<void(std::ostream&)>& write) {
  if (path.empty()) return true;
  if (path == "-") {
    write(std::cout);
    return true;
  }
  std::ofstream os{path};
  if (!os) {
    std::fprintf(stderr, "dvs_sim: cannot open %s\n", path.c_str());
    return false;
  }
  write(os);
  std::fprintf(hout, "%s -> %s\n", what, path.c_str());
  return true;
}

void warn_out_of_range(const obs::MetricsRegistry& registry) {
  for (const auto& [name, frac] : registry.out_of_range_histograms(0.01)) {
    std::fprintf(stderr,
                 "dvs_sim: warning: %.1f%% of histogram %s's samples fell"
                 " outside its registered range (see underflow/overflow in"
                 " the metrics JSON); its quantiles are unaffected\n",
                 frac * 100.0, name.c_str());
  }
}

bool open_telemetry(const CliOptions& o, obs::TelemetrySnapshotter& telemetry) {
  if (o.telemetry_jsonl == "-") {
    usage("--telemetry-jsonl needs a file path"
          " (stdout is reserved for machine documents)");
  }
  if (o.telemetry_jsonl.empty() || telemetry.open(o.telemetry_jsonl)) {
    return true;
  }
  std::fprintf(stderr, "dvs_sim: cannot open %s\n", o.telemetry_jsonl.c_str());
  return false;
}

std::function<void(const core::UnitProgress&)> progress_snapshots(
    obs::TelemetrySnapshotter& telemetry, const char* source) {
  if (!telemetry.active()) return {};
  return [&telemetry, source](const core::UnitProgress& p) {
    static const obs::MetricsRegistry kEmpty;
    obs::TelemetrySnapshotter::Live live{
        {"done", static_cast<double>(p.done)},
        {"total", static_cast<double>(p.total)},
        {"eta_s", p.eta_s}};
    live.insert(live.end(), p.fields.begin(), p.fields.end());
    telemetry.snapshot(p.elapsed_s, source,
                       p.registry != nullptr ? *p.registry : kEmpty, live);
  };
}

std::string fmt_local_time(double unix_s, const char* format) {
  const std::time_t t = static_cast<std::time_t>(unix_s);
  std::tm tm{};
  localtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, format, &tm);
  return buf;
}

}  // namespace dvs::cli
