// Full-precision identity: every engine number of four serve jobs must match
// tests/golden/full_precision.txt to the last bit.
//
// sweep_golden compares CSVs printed to 6 significant digits and obs_golden
// covers four `run` configs, so a hot-path refactor that is meant to be
// bit-identical could still move a result in the 7th digit unseen.  This
// test resolves four serve jobs the way serve::run_job does, at jobs=1:
//
//   * sweep quick                                (checkpoint, per point),
//   * sweep table4 --replicates 1                (checkpoint, per point),
//   * fleet fleet_smoke --devices 512 --shard-size 64 (checkpoint, per shard),
//   * one run job (mp3 A, change-point, TISMDP)  (run.csv, plus its Metrics),
//
// and concatenates their checkpoint-format records (every Metrics scalar
// at %.17g, plus the pinned sketch text) with the run job's artifact.  On a mismatch
// the actual text lands in `full_precision.actual.txt` in the working
// directory; regenerate the reference by copying that file over the golden
// one, only for an intentional change to results, and say why in the
// change log.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "serve/checkpoint.hpp"
#include "serve/job_runner.hpp"
#include "serve/job_spec.hpp"

namespace dvs::serve {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct IdentityJob {
  const char* id;
  const char* json;
};

const IdentityJob kJobs[] = {
    {"quick", R"({"schema": "dvs-job-v1", "kind": "sweep", "jobs": 1,
                  "sweep": {"scenario": "quick"}})"},
    {"table4", R"({"schema": "dvs-job-v1", "kind": "sweep", "jobs": 1,
                   "sweep": {"scenario": "table4", "replicates": 1}})"},
    {"fleet_smoke", R"({"schema": "dvs-job-v1", "kind": "fleet", "jobs": 1,
                        "fleet": {"name": "fleet_smoke", "devices": 512,
                                  "shard_size": 64}})"},
    {"run", R"({"schema": "dvs-job-v1", "kind": "run", "jobs": 1,
                "run": {"media": "mp3", "sequence": "A",
                        "detector": "change-point", "dpm": "tismdp"}})"},
};

/// A sweep or fleet job's units as checkpoint records (every Metrics
/// scalar at %.17g, plus the pinned sketch text), in unit order: the
/// job's own scenario or population and the writer its checkpoint uses.
/// run_job deletes a finished job's checkpoint, so the runners are driven
/// here with the same resolution and the same record hooks.
std::string unit_records(const JobSpec& spec, const fs::path& path) {
  {
    CheckpointWriter w(path.string(), spec.id, to_string(spec.kind), 1);
    if (spec.kind == JobKind::Sweep) {
      core::SweepOptions sopts;
      sopts.jobs = 1;
      sopts.collect_quantiles = true;
      sopts.on_point_checkpoint = [&w](const core::RunPoint& p,
                                       const core::Metrics& m,
                                       const obs::QuantileSketch& sketch) {
        w.append_point(p.index, m, sketch);
      };
      (void)core::SweepRunner{sopts}.run(job_scenario(spec));
    } else {
      auto [fspec, fopts] = job_fleet(spec);
      fopts.jobs = 1;
      fopts.on_shard = [&w](std::size_t shard,
                            const dvs::fleet::FleetShardPartial& part) {
        w.append_shard(shard, part);
      };
      (void)dvs::fleet::FleetRunner{fopts}.run(fspec);
    }
  }
  return slurp(path);
}

/// A run job's run.csv, then its Metrics at %.17g: the same resolution
/// run_job makes, formatted by the checkpoint writer.
std::string run_records(const JobSpec& spec, const fs::path& dir) {
  JobPaths paths;
  paths.output_dir = (dir / spec.id).string();
  (void)run_job(spec, paths, 1);
  std::string text = slurp(dir / spec.id / "run.csv");

  const JobRun resolved{spec};
  const core::WorkloadAsset asset = resolved.build_asset();
  const core::Metrics m =
      core::run_items(*asset.items, resolved.options(asset.idle));
  const fs::path path = dir / "run_metrics.jsonl";
  {
    CheckpointWriter w(path.string(), spec.id, to_string(spec.kind), 1);
    w.append_point(0, m, obs::QuantileSketch{});
  }
  return text + slurp(path);
}

TEST(FullPrecisionIdentity, FourJobsMatchTheReference) {
  const fs::path tmp = fs::temp_directory_path() / "dvs_full_precision";
  fs::remove_all(tmp);
  fs::create_directories(tmp);

  std::string actual;
  for (const IdentityJob& job : kJobs) {
    const JobSpec spec = JobSpec::parse_text(job.json, job.id);
    actual += "## " + spec.id + "\n";
    actual += spec.kind == JobKind::Run
                  ? run_records(spec, tmp)
                  : unit_records(spec, tmp / (spec.id + ".jsonl"));
  }
  fs::remove_all(tmp);

  const fs::path golden = fs::path(DVS_GOLDEN_DIR) / "full_precision.txt";
  const std::string expected = slurp(golden);
  if (actual != expected) {
    std::ofstream("full_precision.actual.txt", std::ios::binary) << actual;
    std::istringstream a(actual);
    std::istringstream e(expected);
    std::string la;
    std::string le;
    int line = 0;
    while (true) {
      ++line;
      const bool more_a = static_cast<bool>(std::getline(a, la));
      const bool more_e = static_cast<bool>(std::getline(e, le));
      if (!more_a && !more_e) break;
      if (!more_a || !more_e || la != le) {
        ADD_FAILURE() << "first difference at line " << line
                      << "\n  golden: " << (more_e ? le : "<end>")
                      << "\n  actual: " << (more_a ? la : "<end>")
                      << "\n(actual text written to full_precision.actual.txt)";
        break;
      }
    }
  }
}

}  // namespace
}  // namespace dvs::serve
