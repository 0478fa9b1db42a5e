// FleetRunner: a FleetSpec's device population as shards of the
// ordered-unit executor (core/units.hpp), with results bit-identical at
// any --jobs.
//
// Determinism contract (the sweep's, restated for devices): every device
// is an independent simulation — its plan is pure arithmetic on
// mix_seed(fleet_seed, device_id) substreams (fleet_spec.hpp), its engine
// gets a fresh DPM policy and its own engine seed — and devices are
// partitioned into fixed-size shards whose boundaries depend only on the
// spec, never on the thread count.  A shard's partial accumulates its
// devices in id order; the executor stores it by shard index and the
// runner folds the partials serially in shard-index order.  Quantile
// sketches therefore always merge in the same order with the same
// operands, so the fleet CSV is byte-identical at any --jobs.  The runner
// keeps only what is fleet-specific: asset building, executing one shard,
// its progress fields, and the fold.
//
// Shared immutable assets, built once before dispatch: the prepared
// change-point threshold table and one WorkloadAsset per (workload entry,
// trace variant, {base, wave-perturbed}) that some executed device plays
// (needed_assets below) — a million devices play a few dozen traces, with
// per-device rate jitter re-timing each device's copy.  A slot that only
// restored shards or no device at all would play is never built.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "core/metrics.hpp"
#include "core/units.hpp"
#include "fleet/fleet_spec.hpp"
#include "obs/telemetry/quantile_sketch.hpp"

namespace dvs::fleet {

/// Population roll-up for one (workload entry, policy) slice.  Sums are
/// plain serial accumulations in device-id order; the sketches hold one
/// sample per device (its mean frame delay / total energy / dropped
/// frames), so their quantiles are over-devices percentiles, the numbers
/// a fleet operator actually pages on.
struct FleetGroupResult {
  std::string workload;  ///< WorkloadSpec::name() of the slice
  std::string policy;    ///< governor key of the slice
  std::size_t devices = 0;
  std::size_t wave_devices = 0;
  double energy_j = 0.0;  ///< total Joules across the slice's devices
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t faults_injected = 0;
  double sum_mean_delay_s = 0.0;  ///< for the slice's mean-of-means
  obs::QuantileSketch delay_sketch;    ///< per-device mean frame delay (s)
  obs::QuantileSketch energy_sketch;   ///< per-device total energy (J)
  obs::QuantileSketch dropped_sketch;  ///< per-device dropped frames

  /// Folds `other` (sums add, sketches merge) — callers must fold in a
  /// deterministic order for byte-identical quantiles.
  void fold(const FleetGroupResult& other);
};

/// One shard's accumulated partial: the complete fold-unit of a fleet run.
/// A checkpointed shard partial re-enters the serial shard-order fold
/// exactly where the freshly-computed one would, so a restored run's CSV
/// is byte-identical to an uninterrupted one (see FleetOptions::restored).
struct FleetShardPartial {
  /// Workload-major x policy grid, same layout as FleetResult::groups but
  /// without the name fields (those are filled once, at final fold time).
  std::vector<FleetGroupResult> groups;
  std::uint64_t frames_total = 0;
};

struct FleetResult {
  std::string fleet;
  int jobs = 1;
  double wall_seconds = 0.0;
  std::size_t devices = 0;
  std::uint64_t frames_total = 0;  ///< decoded + dropped, fleet-wide
  /// Workload-major x policy grid, every slice present (possibly empty).
  std::vector<FleetGroupResult> groups;
  /// Fleet-wide roll-up: groups folded in group order.
  FleetGroupResult total;
  core::UnitCounts units;  ///< shards executed vs restored

  /// Consolidated CSV emission: one row per slice plus an "all/all" total
  /// row.  Deliberately excludes jobs and wall time — the CSV must be
  /// byte-identical at any --jobs, and those are the two values that
  /// legitimately differ.
  void write_csv(CsvWriter& csv) const;
};

/// Fleet options on top of the shared UnitOptions (jobs, restored,
/// on_progress).  Progress records count shards and carry shard,
/// devices_done and the running fleet Joules (both including restored
/// shards), and the shard's devices and energy_j.
struct FleetOptions : core::UnitOptions<FleetShardPartial> {
  /// Devices per shard: the unit of work stealing, progress granularity,
  /// and partial-fold order.  Result bytes are independent of this value
  /// only through the sums; sketch fold order follows shard order, so it
  /// is part of the spec of a reproducible run (keep the default unless
  /// measuring scheduling).
  std::size_t shard_size = 1024;
  /// Called after every *executed* shard with its finished partial —
  /// everything a checkpoint record needs to make the shard restorable.
  /// Serialized, completion order, on the worker right after the shard.
  std::function<void(std::size_t, const FleetShardPartial&)> on_shard;
};

/// Which shared workload assets a run plays: one flag per asset slot
/// (workload_idx * trace_variants + variant) * 2 + in_wave, set when a
/// device of a shard that `restored` does not supply (null = none) plays
/// it.  Walks those devices in id order and stops once every slot the spec
/// can reach is set.  `shard_size` is the runner's, at least 1.
std::vector<bool> needed_assets(
    const FleetSpec& spec, std::size_t shard_size,
    const std::map<std::size_t, FleetShardPartial>* restored);

class FleetRunner {
 public:
  explicit FleetRunner(FleetOptions opts = {}) : opts_(std::move(opts)) {}

  /// Validates, prepares the shared assets its executed devices play,
  /// simulates every device of the unrestored shards, folds.
  FleetResult run(const FleetSpec& spec) const;

 private:
  FleetOptions opts_;
};

}  // namespace dvs::fleet
