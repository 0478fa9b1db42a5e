// Shared option surface of the dvs_sim subcommands.
//
// One flag vocabulary serves the artifact-producing subcommands (run,
// sweep, fleet, report): the dvs-job-v1 request (serve::JobSpec) plus the
// output and observability flags only the CLI has.  run, sweep and fleet
// check the request with JobSpec::validate and resolve it with the serve
// job runner's resolvers, so a flag set and the job document spelling it
// mean the same run; a bad name or an out-of-range value is a usage error
// (exit 2).  `serve`, `status` and `tail` parse their own small flag sets.
// Subcommand entry points live in cmd_*.cpp; the dispatcher is
// tools/dvs_sim_cli.cpp.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>

#include "core/metrics.hpp"
#include "core/units.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "serve/job_spec.hpp"

namespace dvs::cli {

struct CliOptions {
  /// The request itself: every flag a dvs-job-v1 document can also spell
  /// (docs/SERVING.md maps each flag to its field).
  serve::JobSpec job;
  /// run: EMA detector gain (no job field; jobs use the default).
  double ema_gain = 0.03;
  /// fleet: write <base>_fleet.csv (population slices + total row).
  std::string fleet_csv;
  std::string sweep_csv;
  std::string save_trace;
  std::string load_trace;
  std::string power_csv;
  std::string trace_jsonl;
  std::string trace_csv;
  std::string chrome_trace;
  std::string metrics_json;
  std::string ledger_json;
  /// run: arms the flight-recorder auto-dump at this path.
  /// report: an existing dump to analyze.
  std::string flight_dump;
  /// sweep: directory for per-point auto-dumps (CI failure artifacts).
  std::string flight_dump_dir;
  std::size_t flight_capacity = 0;  // 0 = FlightRecorder default
  bool no_flight = false;
  /// run: append-only telemetry snapshot JSONL (file path).
  /// sweep/fleet: one progress snapshot per executed point or shard.
  /// report: an existing snapshot series to analyze.
  std::string telemetry_jsonl;
  /// run: sim-time snapshot cadence in seconds (default 1.0).
  double telemetry_every = 0.0;
  /// run/sweep: OpenMetrics text exposition ("-" = stdout).
  std::string metrics_openmetrics;
  /// run: write the hierarchical span profile (collapsed-stack format).
  /// report: an existing profile to analyze.
  std::string self_profile;
  /// report: a serve daemon root to merge (event timeline + per-job
  /// rollups from done/<id>.out/job_summary.json).
  std::string serve_root;
};

/// Prints `msg` and exits 2 (the CLI's usage-error code).
[[noreturn]] void usage(const char* msg);

/// argv[i + 1], the value of the flag at argv[i]; a usage error if absent.
const char* flag_value(int argc, char** argv, int i);

/// The value of integer flag `flag`: decimal digits only, at most `max`.
/// Signs, junk and overflow are usage errors.
std::uint64_t parse_count(const std::string& flag, const char* text,
                          std::uint64_t max);

/// The value of numeric flag `flag`: one whole finite decimal number (a
/// leading minus and an exponent are fine).  Junk, a trailing suffix,
/// inf and nan are usage errors.
double parse_number(const std::string& flag, const char* text);

/// Parses the shared flag vocabulary starting at argv[first] into a
/// request of `kind` (which picks the section --faults and --policy fill;
/// the CLI defaults to one worker); exits via usage() on unknown flags,
/// missing values or malformed numbers.
CliOptions parse_flags(int argc, char** argv, int first, serve::JobKind kind);

/// JobSpec::validate, with a rejection reported through usage().
void validate_job(const serve::JobSpec& job);

void print_metrics(std::FILE* out, const core::Metrics& m);

/// Writes one machine document to `path` ("-" = stdout; empty = nothing)
/// and names the file on `hout`.  False, after an error message, when the
/// file cannot be opened.
bool write_document(const std::string& path, const char* what,
                    std::FILE* hout,
                    const std::function<void(std::ostream&)>& write);

/// Warns on stderr about every histogram with more than 1% of its samples
/// outside its registered range.
void warn_out_of_range(const obs::MetricsRegistry& registry);

/// Opens --telemetry-jsonl when given (a usage error for "-": stdout is
/// reserved for machine documents).  False, after an error message, when
/// the file cannot be opened.
bool open_telemetry(const CliOptions& o, obs::TelemetrySnapshotter& telemetry);

/// The UnitOptions::on_progress hook that writes each executed unit's
/// progress record to `telemetry` as one snapshot (`t` = elapsed, `live` =
/// done, total, eta_s, then the kind's fields); empty when telemetry is
/// off.  `telemetry` must outlive the run.
std::function<void(const core::UnitProgress&)> progress_snapshots(
    obs::TelemetrySnapshotter& telemetry, const char* source);

/// `unix_s` as local time in strftime `format`.
std::string fmt_local_time(double unix_s, const char* format);

// ---- subcommand entry points --------------------------------------------------

/// `dvs_sim run`: one engine session (single trace or mixed session).
int cmd_run(const CliOptions& o);

/// `dvs_sim sweep`: a scenario grid through the SweepRunner.
int cmd_sweep(const CliOptions& o);

/// `dvs_sim fleet`: a device population through the FleetRunner.
int cmd_fleet(const CliOptions& o);

/// `dvs_sim report`: offline analyzer over run/sweep artifacts
/// (metrics JSON, ledger JSON, JSONL traces, flight-recorder dumps).
int cmd_report(const CliOptions& o);

/// `dvs_sim serve <dir>`: the job-queue daemon (parses its own flags —
/// the daemon surface is directories and cadences, not run parameters).
int cmd_serve(int argc, char** argv, int first);

/// `dvs_sim status <root>`: one-shot view of a daemon's status.json
/// (parses its own flags, like serve).
int cmd_status(int argc, char** argv, int first);

/// `dvs_sim tail <root>`: follow the daemon's lifecycle event log; exits
/// cleanly when a daemon_stop event is the newest record.
int cmd_tail(int argc, char** argv, int first);

int cmd_list_scenarios();
int cmd_list_faults();
/// `dvs_sim list fleets`: the built-in fleet populations.
int cmd_list_fleets();
/// `dvs_sim list policies`: the registered governor policies.
int cmd_list_policies();
/// `dvs_sim list metrics`: stock metric families + OpenMetrics names
/// (enumerated from a real minimal run, so the list cannot drift).
int cmd_list_metrics();
/// `dvs_sim list schemas`: the versioned JSON/text schema identifiers this
/// repo emits and which subcommand produces each.
int cmd_list_schemas();

}  // namespace dvs::cli
