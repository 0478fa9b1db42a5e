// FleetRunner: population results byte-identical at any --jobs and across
// a resume, a complete slice grid, one progress record per shard, the fault
// wave / rate jitter actually shaping the population, and shared assets
// built for exactly the slots executed devices play.
#include "fleet/fleet_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace dvs::fleet {
namespace {

/// Small but structurally complete population: two workloads, two
/// policies, jitter, and a wave — cheap enough for a unit test because the
/// mpeg clip is truncated hard and mc_windows is tiny.
FleetSpec test_spec(std::size_t devices = 96) {
  FleetSpec s;
  s.name = "test-fleet";
  s.num_devices = devices;
  s.fleet_seed = 11;
  s.workloads = {
      {core::WorkloadSpec::mpeg("football", seconds(5.0)), 3.0},
      {core::WorkloadSpec::mpeg("terminator2", seconds(5.0)), 1.0},
  };
  s.policies = {{"paper", 0.7}, {"max", 0.3}};
  s.detector = core::DetectorKind::Max;  // no threshold-table prep needed
  s.trace_variants = 2;
  s.rate_jitter = 0.2;
  s.wave = {"spike10x", 0.25};
  return s;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string csv_at_jobs(const FleetSpec& spec, int jobs,
                        std::size_t shard_size) {
  FleetOptions opts;
  opts.jobs = jobs;
  opts.shard_size = shard_size;
  const FleetResult res = FleetRunner{opts}.run(spec);
  const std::string path = ::testing::TempDir() + "fleet_j" +
                           std::to_string(jobs) + ".csv";
  {
    CsvWriter csv{path};
    res.write_csv(csv);
  }
  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(FleetRunner, CsvIsByteIdenticalAtAnyJobs) {
  // shard_size 16 -> 6 shards at 96 devices: with jobs 3 the schedule
  // genuinely interleaves, so this pins the whole determinism chain (fixed
  // shard partition, device-id-order accumulation, shard-order fold).  At
  // 1 and 64 devices only some asset slots are played, so the partial
  // asset build is covered too.
  for (const std::size_t devices : {1, 64, 96}) {
    const FleetSpec spec = test_spec(devices);
    const std::string serial = csv_at_jobs(spec, 1, 16);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, csv_at_jobs(spec, 3, 16)) << devices;
    EXPECT_EQ(serial, csv_at_jobs(spec, 8, 16)) << devices;
  }
}

/// needed_assets by brute force: every device of every unrestored shard.
std::vector<bool> played_slots(
    const FleetSpec& spec, std::size_t shard_size,
    const std::map<std::size_t, FleetShardPartial>* restored) {
  std::vector<bool> played(spec.workloads.size() * spec.trace_variants * 2);
  for (std::uint64_t id = 0; id < spec.num_devices; ++id) {
    if (restored != nullptr && restored->count(id / shard_size) != 0) continue;
    const DevicePlan plan = device_plan(spec, id);
    played[(plan.workload_idx * spec.trace_variants + plan.variant) * 2 +
           (plan.in_wave ? 1 : 0)] = true;
  }
  return played;
}

TEST(NeededAssets, MatchesEveryDeviceOfTheUnrestoredShards) {
  FleetSpec spec = *find_fleet("fleet_smoke");
  for (const std::size_t devices : {1, 64, 512, 4096}) {
    spec.num_devices = devices;
    for (const std::size_t shard_size : {16, 1024}) {
      const std::size_t shards = (devices + shard_size - 1) / shard_size;
      std::map<std::size_t, FleetShardPartial> first, odd;
      first[0] = {};
      for (std::size_t s = 1; s < shards; s += 2) odd[s] = {};
      for (const auto* restored : {static_cast<decltype(&odd)>(nullptr),
                                   &first, &odd}) {
        EXPECT_EQ(needed_assets(spec, shard_size, restored),
                  played_slots(spec, shard_size, restored))
            << devices << " devices, shard " << shard_size << ", "
            << (restored == nullptr ? 0 : restored->size()) << " restored";
      }
    }
  }
}

TEST(NeededAssets, SixtyFourSmokeDevicesPlay27Of48Traces) {
  FleetSpec spec = *find_fleet("fleet_smoke");
  spec.num_devices = 64;
  const std::vector<bool> needed = needed_assets(spec, 1024, nullptr);
  ASSERT_EQ(needed.size(), 48U);
  EXPECT_EQ(std::count(needed.begin(), needed.end(), true), 27);
  // Without a wave only base slots are ever played.
  spec.wave = {};
  spec.num_devices = 4096;
  const std::vector<bool> base = needed_assets(spec, 1024, nullptr);
  for (std::size_t slot = 0; slot < base.size(); ++slot) {
    EXPECT_EQ(base[slot], slot % 2 == 0) << slot;
  }
}

TEST(FleetRunner, ResumeSkippingSlotsOnlyRestoredShardsPlayIsByteIdentical) {
  // A rare wave: each wave-perturbed trace has a handful of players.
  FleetSpec spec = test_spec();
  spec.wave.fraction = 0.05;
  constexpr std::size_t kShard = 16;
  std::map<std::size_t, FleetShardPartial> partials;
  FleetOptions opts;
  opts.shard_size = kShard;
  opts.on_shard = [&partials](std::size_t shard, const FleetShardPartial& p) {
    partials[shard] = p;
  };
  const std::string full = csv_at_jobs(spec, 1, kShard);
  (void)FleetRunner{opts}.run(spec);

  // Restore every shard but the first: some wave trace is then played
  // only by restored devices, so the resumed run never builds it.
  std::map<std::size_t, FleetShardPartial> restored = partials;
  restored.erase(0);
  ASSERT_NE(needed_assets(spec, kShard, &restored),
            needed_assets(spec, kShard, nullptr));

  FleetOptions resume;
  resume.shard_size = kShard;
  resume.jobs = 3;
  resume.restored = &restored;
  const FleetResult res = FleetRunner{resume}.run(spec);
  EXPECT_EQ(res.units.restored, restored.size());
  const std::string path = ::testing::TempDir() + "fleet_resume.csv";
  {
    CsvWriter csv{path};
    res.write_csv(csv);
  }
  EXPECT_EQ(slurp(path), full);
  std::remove(path.c_str());
}

TEST(FleetRunner, SliceGridIsCompleteAndConsistent) {
  const FleetSpec spec = test_spec();
  FleetOptions opts;
  opts.shard_size = 32;
  const FleetResult res = FleetRunner{opts}.run(spec);

  ASSERT_EQ(res.groups.size(), spec.workloads.size() * spec.policies.size());
  EXPECT_EQ(res.devices, spec.num_devices);
  std::size_t devices = 0;
  std::uint64_t frames = 0;
  double energy = 0.0;
  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const FleetGroupResult& g = res.groups[w * spec.policies.size() + p];
      EXPECT_EQ(g.workload, spec.workloads[w].workload.name());
      EXPECT_EQ(g.policy, spec.policies[p].policy);
      EXPECT_EQ(g.delay_sketch.count(), g.devices);
      EXPECT_EQ(g.energy_sketch.count(), g.devices);
      devices += g.devices;
      frames += g.frames_decoded + g.frames_dropped;
      energy += g.energy_j;
    }
  }
  EXPECT_EQ(devices, spec.num_devices);
  EXPECT_EQ(res.total.devices, spec.num_devices);
  EXPECT_EQ(res.frames_total, frames);
  EXPECT_GT(energy, 0.0);
  EXPECT_NEAR(res.total.energy_j, energy, 1e-9);
  // The wave hit part of the fleet, and rate jitter spread the per-device
  // energy (identical devices would collapse the sketch to a point).
  EXPECT_GT(res.total.wave_devices, 0U);
  EXPECT_LT(res.total.wave_devices, spec.num_devices);
  EXPECT_GT(res.total.energy_sketch.max(), res.total.energy_sketch.min());
}

TEST(FleetRunner, ProgressOneRecordPerShardWithMonotoneDone) {
  const FleetSpec spec = test_spec();
  FleetOptions opts;
  opts.jobs = 2;
  opts.shard_size = 16;
  std::vector<core::UnitProgress> records;  // on_progress is serialized
  opts.on_progress = [&records](const core::UnitProgress& p) {
    records.push_back(p);
  };
  const FleetResult res = FleetRunner{opts}.run(spec);

  const std::size_t shards = (spec.num_devices + 15) / 16;
  ASSERT_EQ(records.size(), shards);
  const auto field = [](const core::UnitProgress& p, const std::string& key) {
    for (const auto& [k, v] : p.fields) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "no progress field " << key;
    return 0.0;
  };
  double prev_devices = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const core::UnitProgress& p = records[i];
    EXPECT_EQ(p.done, i + 1);
    EXPECT_EQ(p.total, shards);
    EXPECT_GE(p.elapsed_s, 0.0);
    EXPECT_GT(field(p, "devices"), 0.0);
    EXPECT_GT(field(p, "devices_done"), prev_devices);
    prev_devices = field(p, "devices_done");
  }
  EXPECT_EQ(prev_devices, static_cast<double>(spec.num_devices));
  EXPECT_NEAR(field(records.back(), "running_fleet_energy_j"),
              res.total.energy_j, 1e-6);
}

TEST(FleetRunner, DeviceCountOverrideScalesThePopulation) {
  FleetSpec spec = test_spec(40);
  FleetOptions opts;
  opts.shard_size = 16;
  const FleetResult small = FleetRunner{opts}.run(spec);
  spec.num_devices = 80;
  const FleetResult big = FleetRunner{opts}.run(spec);
  EXPECT_EQ(small.devices, 40U);
  EXPECT_EQ(big.devices, 80U);
  // Growth is append-only: the first 40 devices are the same simulations,
  // so the bigger population costs strictly more energy.
  EXPECT_GT(big.total.energy_j, small.total.energy_j);
}

TEST(FleetRunner, RejectsInvalidSpec) {
  FleetSpec spec = test_spec();
  spec.workloads.clear();
  EXPECT_THROW(FleetRunner{}.run(spec), std::invalid_argument);
}

TEST(FleetRunner, RejectsUnknownClipThatNoDeviceDraws) {
  // Assets are built only for the workloads devices draw: the unknown clip
  // must fail spec validation, not depend on a device to reach it.
  FleetSpec spec = test_spec(1);
  spec.workloads.push_back({core::WorkloadSpec::mpeg("nosuchclip"), 1e-9});
  EXPECT_THROW(FleetRunner{}.run(spec), std::invalid_argument);
}

TEST(FleetRunner, RejectsRestoredShardOfAnotherSliceGrid) {
  // Restored partials come from checkpoint files: one whose group list
  // does not match the spec's workload x policy grid must fail the run,
  // not fold out of bounds or silently drop its devices.
  const std::map<std::size_t, FleetShardPartial> restored{
      {0, FleetShardPartial{}}};
  FleetOptions opts;
  opts.shard_size = 16;
  opts.restored = &restored;
  EXPECT_THROW(FleetRunner{opts}.run(test_spec(40)), std::logic_error);
}

}  // namespace
}  // namespace dvs::fleet
