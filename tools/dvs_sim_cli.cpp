// dvs_sim: command-line driver for the DVS+DPM simulation.
//
// Subcommands:
//   dvs_sim run   [options]              one engine session (trace or --session)
//   dvs_sim sweep <scenario> [options]   run a scenario grid through the sweep
//                                        runner (bit-identical at any --jobs)
//   dvs_sim fleet <name> [options]       simulate a device population through
//                                        the fleet runner (fleet CSV is
//                                        byte-identical at any --jobs)
//   dvs_sim serve <dir> [options]        long-running job-queue daemon: runs
//                                        dvs-job-v1 JSON jobs dropped into
//                                        <dir>/queue/ with checkpoint/restore
//                                        (docs/SERVING.md)
//   dvs_sim status <root> [--json]       one-shot view of a serve daemon's
//                                        status.json (pid/uptime, per-job
//                                        progress + ETA, cache warmth)
//   dvs_sim tail <root> [options]        follow the daemon's lifecycle event
//                                        log; exits cleanly on daemon stop
//   dvs_sim report [inputs]              analyze artifacts a run/sweep wrote
//                                        (--serve-root merges a daemon tree)
//   dvs_sim list  [scenarios|faults|fleets|policies|metrics|schemas]
//                                        enumerate scenarios, fault specs,
//                                        fleets, governor policies, the stock
//                                        metric families, or the JSON schema
//                                        identifiers this repo emits
//
// run, sweep and fleet parse their flags into a dvs-job-v1 request
// (serve::JobSpec) and check it with the serve daemon's validator: a bad
// name or an out-of-range value is a usage error (exit 2), and a flag set
// makes the same run as the job document that spells it (docs/SERVING.md
// maps each flag to its job field).  Flags a subcommand does not read are
// ignored.
//
//   dvs_sim run --media mp3 --sequence ACEFBD --detector change-point
//   dvs_sim run --media mpeg --clip football --seconds 300 --detector ideal
//   dvs_sim run --session --cycles 4 --detector change-point --dpm tismdp
//   dvs_sim run --media mp3 --save-trace out.trace
//   dvs_sim run --load-trace out.trace --detector ema
//   dvs_sim run --media mpeg --policy qdpm
//   dvs_sim list scenarios
//   dvs_sim list policies
//   dvs_sim sweep table5 --jobs 8 --replicates 10
//   dvs_sim sweep policy_shootout --jobs 8 --sweep-csv shootout
//
// Serve options (dvs_sim serve <dir>):
//   --jobs <n>                worker threads per job when the job's own
//                             "jobs" field is 0 (0 = all cores)
//   --poll-ms <n>             longest idle wait between queue scans; drops
//                             wake the daemon at once (default 200)
//   --drain                   exit once queue/ and running/ are empty
//   --max-jobs <n>            stop after n jobs (0 = unlimited)
//
// Status options (dvs_sim status <root>):
//   --json                    echo the raw dvs-serve-status-v1 document
//
// Tail options (dvs_sim tail <root>):
//   --since <seq>             start after this event sequence number
//   --events a[,b,...]        only these event types (job_claimed,
//                             job_recovered, job_finished, job_failed,
//                             daemon_start, daemon_stop)
//   --no-follow               dump the intact prefix and exit
//
// Sweep options:
//   --jobs <n>                sweep worker threads (0 = all cores, default 1)
//   --replicates <r>          override the scenario's replicate count
//   --sweep-csv <base>        write <base>_cells.csv and <base>_points.csv
//
// Fleet options (dvs_sim fleet <name>; also honours --jobs, --seed,
// --telemetry-jsonl):
//   --devices <n>             override the fleet's population size
//   --fleet-csv <base>        write <base>_fleet.csv (population slices +
//                             total row; byte-identical at any --jobs)
//   --shard-size <n>          devices per work-stealing shard (default 1024;
//                             part of a reproducible run's spec — sketches
//                             fold in shard order)
//
//   dvs_sim fleet fleet_smoke --jobs 0 --fleet-csv smoke
//   dvs_sim fleet fleet_city --devices 250000 --telemetry-jsonl /dev/stderr
//
// Fault injection (src/fault/, docs/FAULTS.md):
//   --faults a[,b,...]        inject the named fault specs.  In sweep mode
//                             this replaces the spec's fault axis; in run
//                             mode the workload perturbations of every named
//                             spec apply in order and the first spec's
//                             watchdog / hardware plan is armed.
//
// Run options:
//   --media mp3|mpeg          workload type (default mp3)
//   --sequence <labels>       MP3 clip labels, e.g. ACEFBD (default ACEFBD)
//   --clip football|terminator2   MPEG source clip (default football)
//   --seconds <n>             truncate the MPEG clip / session length knob
//   --session                 run a mixed audio/video/idle session instead
//   --cycles <n>              session cycles (default 4)
//   --detector ideal|change-point|ema|max|sliding-window   (default change-point)
//   --policy <name>           governor policy (`dvs_sim list policies`;
//                             default "paper").  run: selects the governor;
//                             sweep: replaces the scenario's policy axis
//                             with the one named policy
//   --ema-gain <g>            EMA gain (default 0.03)
//   --delay <s>               target mean total frame delay (default 0.1/0.15)
//   --cv2 <v>                 service-variability model for the policy (default 1 = M/M/1)
//   --dpm none|timeout|renewal|tismdp|adaptive|oracle  (default none)
//   --dpm-delay <s>           TISMDP expected-wakeup-delay bound (default 0.5)
//   --seed <n>                workload seed (default 1)
//   --save-trace <path>       write the generated trace and exit
//   --load-trace <path>       run on a previously saved trace
//   --power-csv <path>        dump a 1 Hz whole-badge power trace
//
// Observability (see docs/OBSERVABILITY.md):
//   --trace-jsonl <path>      structured event log, one JSON object per line
//   --trace-csv <path>        flat CSV timeline of the same events
//   --chrome-trace <path>     Chrome trace-event JSON (open in Perfetto or
//                             chrome://tracing; per-component power lanes)
//   --metrics-json <path>     counters/gauges/histograms as JSON; "-" writes
//                             the JSON to stdout and the human-readable
//                             report to stderr
//   --ledger-json <path>      energy/delay attribution ledger as JSON; "-"
//                             writes to stdout (mutually exclusive with
//                             --metrics-json -)
//   --flight-dump <path>      run: arm the flight-recorder auto-dump here;
//                             report: analyze an existing dump
//   --flight-capacity <n>     flight-recorder ring size (rounded up to a
//                             power of two; default 4096)
//   --no-flight-recorder      disable the always-on flight recorder
//
// Streaming telemetry (see docs/OBSERVABILITY.md):
//   --telemetry-jsonl <path>  append-only metric snapshots, one JSON object
//                             per line.  run: sampled on sim time; sweep /
//                             fleet: one progress snapshot per executed
//                             point / shard (done, total, eta_s, ...);
//                             /dev/stderr watches progress live
//   --telemetry-every <s>     run: sim-time snapshot cadence (default 1.0)
//   --metrics-openmetrics <path|->   OpenMetrics text exposition of the
//                             final registry (counters, gauges, sketch-
//                             backed quantile summaries); "-" = stdout
//   --self-profile <path>     run: hierarchical span profile of the engine
//                             itself, collapsed-stack format (flamegraph-
//                             ready); report: analyze an existing profile
//
// Sweep flight dumps:
//   --flight-dump-dir <dir>   per-point flight-recorder auto-dumps (named
//                             <scenario>_point<i>_rep<r>.flight.txt)
//
// Report inputs (any subset; see docs/OBSERVABILITY.md):
//   dvs_sim report --metrics-json m.json --ledger-json l.json
//                  --trace-jsonl t.jsonl --flight-dump f.flight.txt
//                  --telemetry-jsonl tel.jsonl --self-profile prof.txt
//                  --serve-root <root>   (event timeline + per-job rollups)
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_common.hpp"

using namespace dvs;

namespace {

int dispatch_sweep(int argc, char** argv, int first) {
  // Accept the scenario as a positional operand (`dvs_sim sweep table5`)
  // or via the legacy --scenario flag.
  std::string positional;
  if (first < argc && argv[first][0] != '-') {
    positional = argv[first];
    ++first;
  }
  cli::CliOptions o =
      cli::parse_flags(argc, argv, first, serve::JobKind::Sweep);
  std::string& scenario = o.job.sweep.scenario;
  if (!positional.empty()) {
    if (!scenario.empty() && scenario != positional) {
      cli::usage("both a positional scenario and --scenario were given");
    }
    scenario = positional;
  }
  return cli::cmd_sweep(o);
}

int dispatch_fleet(int argc, char** argv, int first) {
  // The fleet name is a positional operand (`dvs_sim fleet fleet_smoke`).
  std::string positional;
  if (first < argc && argv[first][0] != '-') {
    positional = argv[first];
    ++first;
  }
  cli::CliOptions o =
      cli::parse_flags(argc, argv, first, serve::JobKind::Fleet);
  o.job.fleet.name = positional;
  return cli::cmd_fleet(o);
}

int dispatch_list(int argc, char** argv, int first) {
  std::string what = "both";
  if (first < argc) {
    what = argv[first];
    if (first + 1 < argc) cli::usage("list takes at most one operand");
  }
  if (what == "scenarios") return cli::cmd_list_scenarios();
  if (what == "faults") return cli::cmd_list_faults();
  if (what == "fleets") return cli::cmd_list_fleets();
  if (what == "policies") return cli::cmd_list_policies();
  if (what == "metrics") return cli::cmd_list_metrics();
  if (what == "schemas") return cli::cmd_list_schemas();
  if (what == "both") {
    const int rc = cli::cmd_list_scenarios();
    std::printf("\n");
    return rc != 0 ? rc : cli::cmd_list_faults();
  }
  cli::usage(("unknown list operand " + what).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) cli::usage("no subcommand given");
  const std::string cmd = argv[1];
  if (cmd == "run") {
    return cli::cmd_run(cli::parse_flags(argc, argv, 2, serve::JobKind::Run));
  }
  if (cmd == "sweep") return dispatch_sweep(argc, argv, 2);
  if (cmd == "fleet") return dispatch_fleet(argc, argv, 2);
  if (cmd == "serve") return cli::cmd_serve(argc, argv, 2);
  if (cmd == "status") return cli::cmd_status(argc, argv, 2);
  if (cmd == "tail") return cli::cmd_tail(argc, argv, 2);
  if (cmd == "report") {
    return cli::cmd_report(
        cli::parse_flags(argc, argv, 2, serve::JobKind::Run));
  }
  if (cmd == "list") return dispatch_list(argc, argv, 2);
  if (cmd == "--help" || cmd == "-h") cli::usage("help requested");
  cli::usage(("unknown subcommand " + cmd +
              " (expected run|sweep|fleet|serve|status|tail|report|list)")
                 .c_str());
}
