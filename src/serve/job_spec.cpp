#include "serve/job_spec.hpp"

#include <climits>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "core/scenario.hpp"
#include "fault/fault_spec.hpp"
#include "fleet/fleet_spec.hpp"
#include "policy/governor_factory.hpp"

namespace dvs::serve {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("dvs-job-v1: " + what);
}

/// Rejects members outside `allowed` so a typo'd knob ("replicate") fails
/// the job instead of silently running the default.
void check_keys(const json::Value& obj, const char* where,
                const std::set<std::string>& allowed) {
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    if (allowed.count(key) == 0) {
      bad(std::string("unknown key \"") + key + "\" in " + where);
    }
  }
}

bool bool_field(const json::Value& obj, const std::string& key, bool fallback) {
  const json::Value* v = obj.find(key);
  return v == nullptr ? fallback : v->as_bool();
}

/// Member `key` as a whole number in [0, max], or `fallback` when absent.
/// A fraction, a negative or an out-of-range value fails the job: casting
/// it would truncate, wrap or be undefined.
std::uint64_t integer_field(const json::Value& obj, const std::string& key,
                            std::uint64_t fallback, std::uint64_t max) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  try {
    return v->as_integer(max);
  } catch (const json::ParseError& e) {
    bad("\"" + key + "\": " + e.what());
  }
}

}  // namespace

core::DetectorKind resolve_detector(const std::string& name) {
  if (name == "ideal") return core::DetectorKind::Ideal;
  if (name == "change-point" || name == "cp") return core::DetectorKind::ChangePoint;
  if (name == "ema" || name == "exp-average") return core::DetectorKind::ExpAverage;
  if (name == "max") return core::DetectorKind::Max;
  if (name == "sliding-window") return core::DetectorKind::SlidingWindow;
  bad("unknown detector \"" + name + "\"");
}

std::string to_string(JobKind kind) {
  switch (kind) {
    case JobKind::Run: return "run";
    case JobKind::Sweep: return "sweep";
    case JobKind::Fleet: return "fleet";
  }
  return "?";
}

JobSpec JobSpec::parse(const json::Value& doc, const std::string& fallback_id) {
  if (!doc.is_object()) bad("document is not a JSON object");
  const std::string schema = doc.string_or("schema", "");
  if (schema != kJobSchema) {
    bad("schema is \"" + schema + "\", expected \"" + kJobSchema + "\"");
  }
  check_keys(doc, "job", {"schema", "id", "kind", "seed", "jobs",
                          "checkpoint_every", "run", "sweep", "fleet"});

  JobSpec spec;
  spec.id = doc.string_or("id", fallback_id);
  if (spec.id.empty()) bad("job has no \"id\" and no usable file stem");

  const std::string kind = doc.string_or("kind", "");
  if (kind == "run") spec.kind = JobKind::Run;
  else if (kind == "sweep") spec.kind = JobKind::Sweep;
  else if (kind == "fleet") spec.kind = JobKind::Fleet;
  else bad("\"kind\" must be run|sweep|fleet, got \"" + kind + "\"");

  spec.seed_set = doc.find("seed") != nullptr;
  spec.seed = integer_field(doc, "seed", 0, UINT64_MAX);
  spec.jobs = static_cast<int>(integer_field(doc, "jobs", 0, INT_MAX));
  spec.checkpoint_every = integer_field(doc, "checkpoint_every", 1, SIZE_MAX);
  if (spec.checkpoint_every == 0) spec.checkpoint_every = 1;

  for (const char* section : {"run", "sweep", "fleet"}) {
    if (doc.find(section) != nullptr && section != kind) {
      bad(std::string("section \"") + section + "\" present but kind is \"" +
          kind + "\"");
    }
  }

  switch (spec.kind) {
    case JobKind::Run: {
      if (const json::Value* r = doc.find("run"); r != nullptr) {
        check_keys(*r, "run section",
                   {"media", "sequence", "clip", "seconds", "session", "cycles",
                    "detector", "policy", "dpm", "dpm_delay", "delay", "cv2",
                    "faults"});
        spec.run.media = r->string_or("media", spec.run.media);
        spec.run.sequence = r->string_or("sequence", spec.run.sequence);
        spec.run.clip = r->string_or("clip", spec.run.clip);
        spec.run.seconds = r->number_or("seconds", spec.run.seconds);
        spec.run.session = bool_field(*r, "session", spec.run.session);
        spec.run.cycles = static_cast<int>(
            integer_field(*r, "cycles", spec.run.cycles, INT_MAX));
        spec.run.detector = r->string_or("detector", spec.run.detector);
        spec.run.policy = r->string_or("policy", spec.run.policy);
        spec.run.dpm = r->string_or("dpm", spec.run.dpm);
        spec.run.dpm_delay = r->number_or("dpm_delay", spec.run.dpm_delay);
        spec.run.delay = r->number_or("delay", spec.run.delay);
        spec.run.cv2 = r->number_or("cv2", spec.run.cv2);
        spec.run.faults = r->string_or("faults", spec.run.faults);
      }
      break;
    }
    case JobKind::Sweep: {
      const json::Value* s = doc.find("sweep");
      if (s == nullptr) bad("kind \"sweep\" requires a \"sweep\" section");
      check_keys(*s, "sweep section",
                 {"scenario", "replicates", "faults", "policy"});
      spec.sweep.scenario = s->string_or("scenario", "");
      spec.sweep.replicates =
          static_cast<int>(integer_field(*s, "replicates", 0, INT_MAX));
      spec.sweep.faults = s->string_or("faults", "");
      spec.sweep.policy = s->string_or("policy", "");
      break;
    }
    case JobKind::Fleet: {
      const json::Value* f = doc.find("fleet");
      if (f == nullptr) bad("kind \"fleet\" requires a \"fleet\" section");
      check_keys(*f, "fleet section", {"name", "devices", "shard_size"});
      spec.fleet.name = f->string_or("name", "");
      spec.fleet.devices = integer_field(*f, "devices", 0, SIZE_MAX);
      spec.fleet.shard_size = integer_field(*f, "shard_size", 0, SIZE_MAX);
      break;
    }
  }

  spec.validate();
  return spec;
}

JobSpec JobSpec::parse_file(const std::string& path) {
  std::string stem = path;
  if (const auto slash = stem.find_last_of('/'); slash != std::string::npos) {
    stem = stem.substr(slash + 1);
  }
  if (const auto dot = stem.find_last_of('.'); dot != std::string::npos) {
    stem = stem.substr(0, dot);
  }
  return parse(*json::parse_file(path), stem);
}

void JobSpec::validate() const {
  auto check_policy = [](const std::string& name) {
    if (name.empty()) return;
    const policy::GovernorFactory& factory = policy::GovernorFactory::instance();
    if (factory.has(name)) return;
    std::string known;
    for (const auto& e : factory.entries()) {
      if (!known.empty()) known += ", ";
      known += e.name;
    }
    bad("unknown policy \"" + name + "\" (known: " + known + ")");
  };
  switch (kind) {
    case JobKind::Run: {
      if (run.media != "mp3" && run.media != "mpeg") {
        bad("\"media\" must be mp3|mpeg, got \"" + run.media + "\"");
      }
      if (run.cycles <= 0) bad("\"cycles\" must be > 0");
      if (!run.session) {
        (run.media == "mp3" ? core::WorkloadSpec::mp3(run.sequence)
                            : core::WorkloadSpec::mpeg(run.clip))
            .validate();
      }
      if (run.cv2 < 0.0) bad("\"cv2\" must be >= 0");
      if (run.dpm_delay < 0.0) bad("\"dpm_delay\" must be >= 0");
      (void)resolve_detector(run.detector);
      check_policy(run.policy);
      if (!core::dpm_kind_from_string(run.dpm)) {
        bad("unknown dpm policy \"" + run.dpm + "\" (known: " +
            core::known_dpm_kinds() + ")");
      }
      // throws on unknown names (empty = fault-free, not an error)
      if (!run.faults.empty()) fault::parse_fault_list(run.faults);
      break;
    }
    case JobKind::Sweep: {
      if (spec_scenario() == nullptr) {
        bad("unknown scenario \"" + sweep.scenario + "\"");
      }
      if (sweep.replicates < 0) bad("\"replicates\" must be >= 0");
      check_policy(sweep.policy);
      if (!sweep.faults.empty()) fault::parse_fault_list(sweep.faults);
      break;
    }
    case JobKind::Fleet: {
      if (spec_fleet() == nullptr) {
        bad("unknown fleet \"" + fleet.name + "\"");
      }
      break;
    }
  }
}

const core::ScenarioSpec* JobSpec::spec_scenario() const {
  return core::find_scenario(sweep.scenario);
}

const dvs::fleet::FleetSpec* JobSpec::spec_fleet() const {
  return dvs::fleet::find_fleet(fleet.name);
}

}  // namespace dvs::serve
