// `dvs_sim run`: one engine session over a single trace or a mixed
// audio/video/idle session, with optional fault injection and trace sinks.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <vector>

#include "cli_common.hpp"
#include "common/csv.hpp"
#include "core/sweep.hpp"
#include "fault/trace_transforms.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/telemetry/openmetrics.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "obs/telemetry/span_profiler.hpp"
#include "obs/trace_recorder.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace dvs::cli {

int cmd_run(const CliOptions& o) {
  // The same shared-asset + assemble_run_options path the sweep pool, the
  // fleet shards, and serve jobs use — cmd_run is just a one-point sweep.
  const core::CpuAsset cpu_asset = core::build_cpu_asset("sa1100");
  const hw::Sa1100& cpu = cpu_asset.cpu;

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

  core::DetectorFactoryConfig detector_cfg;
  detector_cfg.ema_gain = o.ema_gain;
  if (detector_kind(o.detector) == core::DetectorKind::ChangePoint) {
    detector_cfg.prepare();
  }

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

  // Single-run fault injection: all named specs' workload perturbations
  // apply in order; the first spec supplies the watchdog and hardware plan.
  const fault::FaultSpec faults =
      o.faults.empty() ? fault::FaultSpec{}
                       : fault::combine_faults(resolve_faults(o.faults));
  Rng fault_rng{core::mix_seed(o.seed, 0xfa)};

  core::RunAssembly assembly;
  assembly.detector = detector_kind(o.detector);
  if (!o.policy.empty()) assembly.policy = o.policy;
  assembly.service_cv2 = o.cv2;
  assembly.dpm = dpm_spec(o);
  assembly.engine_seed = o.seed;
  if (!o.faults.empty()) assembly.faults = &faults;

  // Observability attachments ride on top of the assembled options; they
  // never feed the simulation result.
  const auto attach_observability = [&](core::RunOptions& opts) {
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
  };

  core::Metrics m;
  if (o.session) {
    core::SessionConfig scfg;
    scfg.cycles = o.cycles;
    scfg.seed = o.seed;
    if (o.seconds_limit > 0.0) scfg.mpeg_segment = seconds(o.seconds_limit);
    core::Session session = core::build_session(scfg, cpu);
    if (!faults.trace_faults.empty()) {
      for (core::PlaybackItem& item : session.items) {
        item.trace =
            fault::apply_faults(item.trace, faults.trace_faults, fault_rng);
      }
    }
    assembly.delay_target = seconds(o.delay > 0.0 ? o.delay : 0.1);
    core::RunOptions opts = core::assemble_run_options(
        assembly, cpu_asset, session.idle_model, detector_cfg);
    attach_observability(opts);
    std::fprintf(hout, "session: %.0f s (%.0f media / %.0f idle), %zu items\n\n",
                 session.duration.value(), session.media_time.value(),
                 session.idle_time.value(), session.items.size());
    m = core::run_items(session.items, opts);
  } else {
    std::optional<workload::FrameTrace> trace;
    std::optional<workload::DecoderModel> decoder;
    if (!o.load_trace.empty()) {
      trace = workload::load_trace(o.load_trace);
      decoder = trace->type() == workload::MediaType::Mp3Audio
                    ? workload::reference_mp3_decoder(cpu.max_frequency())
                    : workload::reference_mpeg_decoder(cpu.max_frequency());
    } else if (o.media == "mp3") {
      decoder = workload::reference_mp3_decoder(cpu.max_frequency());
      Rng rng{o.seed};
      trace = workload::build_mp3_trace(workload::mp3_sequence(o.sequence),
                                        *decoder, rng);
    } else if (o.media == "mpeg") {
      decoder = workload::reference_mpeg_decoder(cpu.max_frequency());
      workload::MpegClip clip = o.clip == "terminator2"
                                    ? workload::terminator2_clip()
                                    : workload::football_clip();
      if (o.seconds_limit > 0.0) {
        clip.duration = seconds(
            std::min(o.seconds_limit, clip.duration.value()));
      }
      Rng rng{o.seed};
      trace = workload::build_mpeg_trace(clip, *decoder, rng);
    } else {
      usage(("unknown media " + o.media).c_str());
    }

    if (!faults.trace_faults.empty()) {
      trace = fault::apply_faults(*trace, faults.trace_faults, fault_rng);
    }

    if (!o.save_trace.empty()) {
      workload::save_trace(*trace, o.save_trace);
      // Through hout, not stdout: `--save-trace x --metrics-json -` must not
      // interleave prose into the JSON stream.
      std::fprintf(hout, "wrote %zu frames to %s\n", trace->size(),
                   o.save_trace.c_str());
      return 0;
    }

    const auto idle = core::default_idle_distribution();
    const bool audio = trace->type() == workload::MediaType::Mp3Audio;
    assembly.delay_target =
        seconds(o.delay > 0.0 ? o.delay : (audio ? 0.15 : 0.1));
    core::RunOptions opts =
        core::assemble_run_options(assembly, cpu_asset, idle, detector_cfg);
    attach_observability(opts);
    std::fprintf(hout, "trace: %zu frames over %.0f s (%s)\n\n", trace->size(),
                 trace->duration().value(),
                 std::string(workload::to_string(trace->type())).c_str());
    m = core::run_single_trace(*trace, *decoder, opts);
  }

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
  // Clamped-mass warning: a histogram silently folding >1% of its samples
  // into the underflow/overflow counters means the binned view is lying.
  warn_clamped(registry);

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
