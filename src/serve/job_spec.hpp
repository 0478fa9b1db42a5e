// serve::JobSpec — the versioned request API of the dvs_sim daemon
// (`dvs-job-v1`), and the request the run/sweep/fleet subcommands parse
// their flags into.  A job file is a complete, replayable statement of
// work: drop it in the queue today or next year and the same bytes come
// out.
//
// Shape (parsed with common/json; unknown keys are rejected so a typo'd
// knob fails loudly instead of silently running the default):
//
//   {
//     "schema": "dvs-job-v1",
//     "id": "nightly-city",            // optional; defaults to the file stem
//     "kind": "run" | "sweep" | "fleet",
//     "seed": 7,                       // optional seed override
//     "jobs": 4,                       // optional worker threads (0 = daemon's)
//     "checkpoint_every": 8,           // flush cadence in completed units
//     "sweep": {"scenario": "quick", "replicates": 3,
//               "faults": "spike10x", "policy": ""},
//     "fleet": {"name": "fleet_smoke", "devices": 2000, "shard_size": 64},
//     "run":   {"media": "mp3", "sequence": "ACEFBD", "clip": "football",
//               "seconds": 0, "session": false, "cycles": 4,
//               "detector": "change-point", "policy": "paper",
//               "dpm": "tismdp", "dpm_delay": 0.5, "delay": 0,
//               "cv2": 1.0, "faults": ""}
//   }
//
// Only the section matching `kind` may be present.  Every field of the
// active section is optional with the documented default; validation
// resolves names (scenario, fleet, detector, dpm, faults, governor) at
// parse time so a bad job lands in failed/ before any work starts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/json.hpp"
#include "core/detectors.hpp"

namespace dvs::core {
struct ScenarioSpec;
}
namespace dvs::fleet {
struct FleetSpec;
}

namespace dvs::serve {

/// Schema identifier stamped on (and required of) every job document.
inline constexpr const char* kJobSchema = "dvs-job-v1";

enum class JobKind { Run, Sweep, Fleet };

std::string to_string(JobKind kind);

/// Detector names: "ideal", "change-point"/"cp", "ema"/"exp-average",
/// "max", "sliding-window".  Throws std::invalid_argument otherwise — a
/// bad job must land in failed/, not take the daemon down.
core::DetectorKind resolve_detector(const std::string& name);

struct RunJob {
  std::string media = "mp3";  ///< "mp3" | "mpeg"
  std::string sequence = "ACEFBD";
  std::string clip = "football";
  double seconds = 0.0;  ///< > 0 truncates the MPEG clip / session knob
  bool session = false;
  int cycles = 4;
  std::string detector = "change-point";
  std::string policy;  ///< empty = engine default ("paper")
  std::string dpm = "none";
  double dpm_delay = 0.5;
  double delay = 0.0;  ///< 0 = per-media default
  double cv2 = 1.0;
  std::string faults;  ///< comma-separated fault::FaultSpec names
};

struct SweepJob {
  std::string scenario;
  int replicates = 0;  ///< 0 = scenario default
  std::string faults;  ///< non-empty replaces the scenario's fault axis
  std::string policy;  ///< non-empty replaces the scenario's policy axis
};

struct FleetJob {
  std::string name;
  std::size_t devices = 0;     ///< 0 = the spec's population size
  std::size_t shard_size = 0;  ///< 0 = FleetOptions default
};

struct JobSpec {
  std::string id;
  JobKind kind = JobKind::Run;
  std::uint64_t seed = 0;
  bool seed_set = false;
  int jobs = 0;  ///< worker threads for this job; 0 = daemon default
  /// Checkpoint flush cadence in completed units (sweep points / fleet
  /// shards): progress is durable every N units.  1 = every unit.
  std::size_t checkpoint_every = 1;

  RunJob run;
  SweepJob sweep;
  FleetJob fleet;

  /// Parses + validates a dvs-job-v1 document.  `fallback_id` names the
  /// job when the document has no "id" (the daemon passes the file stem).
  /// Throws std::invalid_argument on schema violations and unresolvable
  /// names, json::ParseError on malformed JSON.
  static JobSpec parse(const json::Value& doc, const std::string& fallback_id);
  static JobSpec parse_text(const std::string& text,
                            const std::string& fallback_id);
  static JobSpec parse_file(const std::string& path);

  /// Checks the active section's names and values — the one validator of
  /// job documents (parse calls it) and of the CLI's flags.  Throws
  /// std::invalid_argument naming the offending field.
  void validate() const;

  /// The resolved scenario / fleet registry entries (null when the job is
  /// not of that kind or the name is unknown).
  [[nodiscard]] const core::ScenarioSpec* spec_scenario() const;
  [[nodiscard]] const dvs::fleet::FleetSpec* spec_fleet() const;

  /// Writes the job back out as a dvs-job-v1 document (only the active
  /// section, only non-default fields omitted = false: everything explicit
  /// so round trips are self-describing).
  void write_json(std::ostream& os) const;
};

}  // namespace dvs::serve
