#include "serve/checkpoint.hpp"

#include <climits>
#include <cstdint>

#include "common/json.hpp"

namespace dvs::serve {
namespace {

void write_metrics(std::ostream& os, const core::Metrics& m) {
  os << "{\"duration\": " << json::fmt17(m.duration.value())
     << ", \"total_energy\": " << json::fmt17(m.total_energy.value())
     << ", \"component_energy\": [";
  for (std::size_t i = 0; i < m.component_energy.size(); ++i) {
    if (i != 0) os << ", ";
    os << json::fmt17(m.component_energy[i].value());
  }
  os << "], \"average_power\": " << json::fmt17(m.average_power.value())
     << ", \"frames_arrived\": " << m.frames_arrived
     << ", \"frames_admitted\": " << m.frames_admitted
     << ", \"frames_decoded\": " << m.frames_decoded
     << ", \"frames_dropped\": " << m.frames_dropped
     << ", \"mean_frame_delay\": " << json::fmt17(m.mean_frame_delay.value())
     << ", \"max_frame_delay\": " << json::fmt17(m.max_frame_delay.value())
     << ", \"mean_buffered_frames\": " << json::fmt17(m.mean_buffered_frames)
     << ", \"cpu_switches\": " << m.cpu_switches
     << ", \"mean_cpu_frequency\": " << json::fmt17(m.mean_cpu_frequency.value())
     << ", \"dpm_idle_periods\": " << m.dpm_idle_periods
     << ", \"dpm_sleeps\": " << m.dpm_sleeps
     << ", \"dpm_wakeups\": " << m.dpm_wakeups
     << ", \"dpm_total_wakeup_delay\": "
     << json::fmt17(m.dpm_total_wakeup_delay.value())
     << ", \"faults_injected\": " << m.faults_injected
     << ", \"watchdog_escalations\": " << m.watchdog_escalations
     << ", \"watchdog_recoveries\": " << m.watchdog_recoveries
     << ", \"time_in_degraded\": " << json::fmt17(m.time_in_degraded.value()) << "}";
}

core::Metrics read_metrics(const json::Value& v) {
  core::Metrics m;
  m.duration = Seconds{v.number_or("duration", 0.0)};
  m.total_energy = Joules{v.number_or("total_energy", 0.0)};
  if (const json::Value* comp = v.find("component_energy"); comp != nullptr) {
    const auto& arr = comp->as_array();
    for (std::size_t i = 0; i < arr.size() && i < m.component_energy.size();
         ++i) {
      m.component_energy[i] = Joules{arr[i]->as_number()};
    }
  }
  m.average_power = MilliWatts{v.number_or("average_power", 0.0)};
  // Counters read as integers: a negative, fractional or huge value
  // throws, and the loader ends the intact prefix at this record.
  const auto count = [&v](const char* key) {
    return v.integer_or(key, 0, UINT64_MAX);
  };
  const auto int_count = [&v](const char* key) {
    return static_cast<int>(v.integer_or(key, 0, INT_MAX));
  };
  m.frames_arrived = count("frames_arrived");
  m.frames_admitted = count("frames_admitted");
  m.frames_decoded = count("frames_decoded");
  m.frames_dropped = count("frames_dropped");
  m.mean_frame_delay = Seconds{v.number_or("mean_frame_delay", 0.0)};
  m.max_frame_delay = Seconds{v.number_or("max_frame_delay", 0.0)};
  m.mean_buffered_frames = v.number_or("mean_buffered_frames", 0.0);
  m.cpu_switches = int_count("cpu_switches");
  m.mean_cpu_frequency = MegaHertz{v.number_or("mean_cpu_frequency", 0.0)};
  m.dpm_idle_periods = int_count("dpm_idle_periods");
  m.dpm_sleeps = int_count("dpm_sleeps");
  m.dpm_wakeups = int_count("dpm_wakeups");
  m.dpm_total_wakeup_delay =
      Seconds{v.number_or("dpm_total_wakeup_delay", 0.0)};
  m.faults_injected = count("faults_injected");
  m.watchdog_escalations = int_count("watchdog_escalations");
  m.watchdog_recoveries = int_count("watchdog_recoveries");
  m.time_in_degraded = Seconds{v.number_or("time_in_degraded", 0.0)};
  return m;
}

fleet::FleetGroupResult read_group(const json::Value& v) {
  fleet::FleetGroupResult g;
  g.devices = v.integer_or("devices", 0, SIZE_MAX);
  g.wave_devices = v.integer_or("wave_devices", 0, SIZE_MAX);
  g.energy_j = v.number_or("energy_j", 0.0);
  g.frames_decoded = v.integer_or("frames_decoded", 0, UINT64_MAX);
  g.frames_dropped = v.integer_or("frames_dropped", 0, UINT64_MAX);
  g.faults_injected = v.integer_or("faults_injected", 0, UINT64_MAX);
  g.sum_mean_delay_s = v.number_or("sum_mean_delay_s", 0.0);
  g.delay_sketch = obs::sketch_from_text(v.string_or("delay_sketch", ""));
  g.energy_sketch = obs::sketch_from_text(v.string_or("energy_sketch", ""));
  g.dropped_sketch = obs::sketch_from_text(v.string_or("dropped_sketch", ""));
  return g;
}

}  // namespace

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const std::string& job_id,
                                   const std::string& kind,
                                   std::size_t flush_every)
    : out_(json::append_jsonl(
          path, std::string("{\"schema\": \"") + kCheckpointSchema +
                    "\", \"job\": \"" + json::escape(job_id) +
                    "\", \"kind\": \"" + kind + "\"}")),
      flush_every_(flush_every == 0 ? 1 : flush_every) {}

void CheckpointWriter::append_point(std::size_t index,
                                    const core::Metrics& metrics,
                                    const obs::QuantileSketch& delay_sketch) {
  out_ << "{\"point\": " << index << ", \"metrics\": ";
  write_metrics(out_, metrics);
  out_ << ", \"delay_sketch\": \"" << json::escape(obs::sketch_text(delay_sketch))
       << "\"}\n";
  if (++pending_ >= flush_every_) flush();
}

void CheckpointWriter::append_shard(std::size_t shard,
                                    const fleet::FleetShardPartial& part) {
  out_ << "{\"shard\": " << shard << ", \"frames_total\": " << part.frames_total
       << ", \"groups\": [";
  for (std::size_t i = 0; i < part.groups.size(); ++i) {
    const fleet::FleetGroupResult& g = part.groups[i];
    if (i != 0) out_ << ", ";
    out_ << "{\"devices\": " << g.devices
         << ", \"wave_devices\": " << g.wave_devices
         << ", \"energy_j\": " << json::fmt17(g.energy_j)
         << ", \"frames_decoded\": " << g.frames_decoded
         << ", \"frames_dropped\": " << g.frames_dropped
         << ", \"faults_injected\": " << g.faults_injected
         << ", \"sum_mean_delay_s\": " << json::fmt17(g.sum_mean_delay_s)
         << ", \"delay_sketch\": \"" << json::escape(obs::sketch_text(g.delay_sketch))
         << "\", \"energy_sketch\": \"" << json::escape(obs::sketch_text(g.energy_sketch))
         << "\", \"dropped_sketch\": \""
         << json::escape(obs::sketch_text(g.dropped_sketch)) << "\"}";
  }
  out_ << "]}\n";
  if (++pending_ >= flush_every_) flush();
}

void CheckpointWriter::flush() {
  out_.flush();
  pending_ = 0;
}

CheckpointData load_checkpoint(const std::string& path) {
  CheckpointData data;
  json::read_jsonl_prefix(
      path, kCheckpointSchema, "checkpoint",
      [&](const json::Value& header) {
        data.job_id = header.string_or("job", "");
        data.kind = header.string_or("kind", "");
      },
      [&](const json::Value& doc) {
        if (const json::Value* point = doc.find("point"); point != nullptr) {
          core::RestoredPoint rp;
          rp.metrics = read_metrics(doc.at("metrics"));
          rp.delay_sketch =
              obs::sketch_from_text(doc.string_or("delay_sketch", ""));
          // An index that is not an integer in [0, 2^53) cannot come from
          // the writer: as_integer throws and the record reads as torn.
          data.points[point->as_integer(SIZE_MAX)] = std::move(rp);
        } else if (const json::Value* shard = doc.find("shard");
                   shard != nullptr) {
          fleet::FleetShardPartial part;
          part.frames_total = doc.integer_or("frames_total", 0, UINT64_MAX);
          for (const json::ValuePtr& g : doc.at("groups").as_array()) {
            part.groups.push_back(read_group(*g));
          }
          data.shards[shard->as_integer(SIZE_MAX)] = std::move(part);
        }
        return true;
      });
  return data;
}

}  // namespace dvs::serve
