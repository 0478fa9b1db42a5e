// Durable job progress (`dvs-checkpoint-v1`): an append-only JSONL file
// next to a running job, one record per completed fold-unit (sweep point /
// fleet shard).  The format exists for exactly one property: a daemon
// killed at any instant restarts, loads the intact prefix of this file,
// skips the recorded units, and emits CSVs byte-identical to an
// uninterrupted run.
//
// Line 1 (header):
//   {"schema": "dvs-checkpoint-v1", "job": "<id>", "kind": "sweep|fleet"}
// Sweep record, one per completed RunPoint:
//   {"point": 17, "metrics": {...all Metrics scalars, %.17g...},
//    "delay_sketch": "dvs-sketch-v1 ..."}
// Fleet record, one per completed shard:
//   {"shard": 3, "frames_total": 12345, "groups": [{"devices": ..,
//    "wave_devices": .., "energy_j": .., "frames_decoded": ..,
//    "frames_dropped": .., "faults_injected": .., "sum_mean_delay_s": ..,
//    "delay_sketch": "...", "energy_sketch": "...", "dropped_sketch": ".."}]}
//
// Doubles are %.17g (round-trip exact); sketches embed their own pinned
// dvs-sketch-v1 text (bit-stable round trip), so a restored unit re-enters
// the serial fold with the very same operand bytes.  A SIGKILL can tear
// the buffered tail of the file — the loader keeps every line up to the
// first unparsable one and discards the rest, which merely re-executes the
// torn units.  Appending to an existing file on resume is supported: the
// writer first truncates a torn final line, and writes the header only
// when the file starts empty.
#pragma once

#include <cstddef>
#include <fstream>
#include <map>
#include <string>

#include "core/sweep.hpp"
#include "fleet/fleet_runner.hpp"

namespace dvs::serve {

inline constexpr const char* kCheckpointSchema = "dvs-checkpoint-v1";

class CheckpointWriter {
 public:
  /// Opens `path` for append; writes the header when the file is new.
  /// `flush_every` = completed units per durability flush (>= 1).
  CheckpointWriter(const std::string& path, const std::string& job_id,
                   const std::string& kind, std::size_t flush_every);

  /// Both appends flush every `flush_every` records.
  void append_point(std::size_t index, const core::Metrics& metrics,
                    const obs::QuantileSketch& delay_sketch);
  void append_shard(std::size_t shard, const fleet::FleetShardPartial& part);
  void flush();

 private:
  std::ofstream out_;
  std::size_t flush_every_ = 1;
  std::size_t pending_ = 0;
};

/// Everything an interrupted job left behind.  `points` / `shards` slot
/// directly into SweepOptions::restored / FleetOptions::restored.
struct CheckpointData {
  std::string job_id;
  std::string kind;
  std::map<std::size_t, core::RestoredPoint> points;
  std::map<std::size_t, fleet::FleetShardPartial> shards;

  [[nodiscard]] bool empty() const { return points.empty() && shards.empty(); }
};

/// Loads a checkpoint file; a missing file yields empty data, a torn
/// trailing line — or a record whose unit index is not an integer in
/// [0, 2^53) — ends the load at the last intact record.  Throws
/// std::runtime_error when the header names a different schema.
CheckpointData load_checkpoint(const std::string& path);

}  // namespace dvs::serve
