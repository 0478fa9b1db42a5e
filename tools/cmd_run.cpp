// `dvs_sim run`: one engine session over a single trace or a mixed
// audio/video/idle session, with optional fault injection and trace sinks.
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "cli_common.hpp"
#include "common/csv.hpp"
#include "fault/trace_transforms.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "obs/telemetry/span_profiler.hpp"
#include "obs/trace_recorder.hpp"
#include "serve/job_runner.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace dvs::cli {

int cmd_run(const CliOptions& o) {
  validate_job(o.job);
  const serve::RunJob& r = o.job.run;

  // A machine document on stdout moves the human-readable report to stderr
  // so the document stays parseable; two documents cannot share stdout.
  const int stdout_docs = (o.metrics_json == "-" ? 1 : 0) +
                          (o.ledger_json == "-" ? 1 : 0) +
                          (o.metrics_openmetrics == "-" ? 1 : 0);
  if (stdout_docs > 1) {
    usage("--metrics-json/--ledger-json/--metrics-openmetrics: at most one"
          " may target stdout (-); write the others to files");
  }
  const bool json_to_stdout = stdout_docs > 0;
  std::FILE* hout = json_to_stdout ? stderr : stdout;

  obs::TraceRecorder recorder;
  try {
    if (!o.trace_jsonl.empty()) {
      recorder.add_sink(std::make_unique<obs::JsonlSink>(o.trace_jsonl));
    }
    if (!o.trace_csv.empty()) {
      recorder.add_sink(std::make_unique<obs::CsvTimelineSink>(o.trace_csv));
    }
    if (!o.chrome_trace.empty()) {
      recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(o.chrome_trace));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvs_sim: %s\n", e.what());
    return 2;
  }
  obs::MetricsRegistry registry;
  obs::TelemetrySnapshotter telemetry;
  if (!open_telemetry(o, telemetry)) return 2;
  obs::SpanProfiler profiler;
  obs::AttributionLedger ledger;

  // The run a serve job with these flags would make, plus the CLI-only
  // detector gain.
  serve::JobRun run{o.job};
  run.detector_cfg.ema_gain = o.ema_gain;

  // The items to play: a loaded trace, or the job's generated workload.
  core::WorkloadAsset asset;
  if (!r.session && !o.load_trace.empty()) {
    const hw::Sa1100& cpu = run.cpu.cpu;
    workload::FrameTrace trace = workload::load_trace(o.load_trace);
    const workload::MediaType type = trace.type();
    const bool audio = type == workload::MediaType::Mp3Audio;
    if (!run.faults.trace_faults.empty()) {
      Rng fault_rng{run.fault_seed};
      trace = fault::apply_faults(trace, run.faults.trace_faults, fault_rng);
    }
    const Seconds end = trace.duration();
    asset.items = std::make_shared<const std::vector<core::PlaybackItem>>(
        std::vector<core::PlaybackItem>{core::PlaybackItem{
            std::move(trace),
            audio ? workload::reference_mp3_decoder(cpu.max_frequency())
                  : workload::reference_mpeg_decoder(cpu.max_frequency()),
            core::default_nominal_arrival(type),
            core::default_nominal_service(type), end}});
    asset.idle = core::default_idle_distribution();
    if (r.delay <= 0.0) run.assembly.delay_target = seconds(audio ? 0.15 : 0.1);
  } else {
    asset = run.build_asset();
  }

  if (!r.session && !o.save_trace.empty()) {
    const workload::FrameTrace& trace = asset.items->front().trace;
    workload::save_trace(trace, o.save_trace);
    // Through hout, not stdout: `--save-trace x --metrics-json -` must not
    // interleave prose into the JSON stream.
    std::fprintf(hout, "wrote %zu frames to %s\n", trace.size(),
                 o.save_trace.c_str());
    return 0;
  }

  core::RunOptions opts = run.options(asset.idle);

  // Observability attachments ride on top of the assembled options; they
  // never feed the simulation result.
  if (recorder.active()) opts.trace = &recorder;
  // The registry backs three sinks: metrics JSON, the OpenMetrics
  // exposition, and the quantiles inside telemetry snapshots.
  const bool want_metrics = !o.metrics_json.empty() ||
                            !o.metrics_openmetrics.empty() ||
                            !o.telemetry_jsonl.empty();
  if (want_metrics) opts.metrics = &registry;
  if (!o.power_csv.empty()) opts.power_sample_period = seconds(1.0);
  if (telemetry.active()) {
    opts.telemetry = &telemetry;
    opts.telemetry_every =
        seconds(o.telemetry_every > 0.0 ? o.telemetry_every : 1.0);
  }
  if (!o.self_profile.empty()) opts.profiler = &profiler;
  if (!o.ledger_json.empty()) opts.ledger = &ledger;
  opts.flight_recorder = !o.no_flight;
  if (o.flight_capacity != 0) opts.flight_capacity = o.flight_capacity;
  opts.flight_dump_path = o.flight_dump;

  if (r.session) {
    std::fprintf(hout, "session: %.0f s (%.0f media / %.0f idle), %zu items\n\n",
                 asset.session_duration.value(), asset.media_time.value(),
                 asset.idle_time.value(), asset.items->size());
  } else {
    const workload::FrameTrace& trace = asset.items->front().trace;
    std::fprintf(hout, "trace: %zu frames over %.0f s (%s)\n\n", trace.size(),
                 trace.duration().value(),
                 std::string(workload::to_string(trace.type())).c_str());
  }
  const core::Metrics m = core::run_items(*asset.items, opts);

  print_metrics(hout, m);

  recorder.flush();
  if (recorder.active()) {
    std::fprintf(hout, "\ntrace: %llu events",
                 static_cast<unsigned long long>(recorder.events_recorded()));
    if (!o.trace_jsonl.empty()) std::fprintf(hout, "  jsonl -> %s", o.trace_jsonl.c_str());
    if (!o.trace_csv.empty()) std::fprintf(hout, "  csv -> %s", o.trace_csv.c_str());
    if (!o.chrome_trace.empty()) {
      std::fprintf(hout, "  chrome-trace -> %s (open in Perfetto)", o.chrome_trace.c_str());
    }
    std::fprintf(hout, "\n");
  }
  if (!write_document(o.metrics_json, "metrics json", hout,
                      [&](std::ostream& os) { registry.write_json(os); }) ||
      !write_document(o.ledger_json, "ledger json", hout,
                      [&](std::ostream& os) { ledger.write_json(os); }) ||
      !write_document(o.metrics_openmetrics, "openmetrics", hout,
                      [&](std::ostream& os) {
                        obs::write_openmetrics(registry, os);
                      })) {
    return 1;
  }
  if (telemetry.active()) {
    std::fprintf(hout, "telemetry jsonl -> %s (%zu snapshots)\n",
                 o.telemetry_jsonl.c_str(), telemetry.snapshots_written());
  }
  if (!o.self_profile.empty()) {
    profiler.finalize();
    std::ofstream os{o.self_profile};
    if (!os) {
      std::fprintf(stderr, "dvs_sim: cannot open %s\n", o.self_profile.c_str());
      return 1;
    }
    profiler.write_collapsed(os);
    std::fprintf(hout, "self-profile -> %s (%zu span nodes, %.3f ms total)\n",
                 o.self_profile.c_str(), profiler.nodes().size(),
                 profiler.node_total_s(0) * 1e3);
  }
  // More than 1% of a histogram's samples outside its registered range
  // means the range is too narrow; the quantiles are unaffected.
  warn_out_of_range(registry);

  if (!o.power_csv.empty()) {
    CsvWriter csv{o.power_csv};
    csv.write_row(std::vector<std::string>{"time_s", "power_mw"});
    for (const auto& [t, p] : m.power_trace) {
      csv.write_row(std::vector<double>{t, p});
    }
    std::fprintf(hout, "\npower trace (%zu samples) -> %s\n", m.power_trace.size(),
                 o.power_csv.c_str());
  }
  return 0;
}

}  // namespace dvs::cli
