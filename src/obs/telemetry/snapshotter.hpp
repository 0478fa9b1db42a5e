// TelemetrySnapshotter: periodic MetricsRegistry samples as append-only
// JSONL — a live metric feed for long runs, instead of end-of-run totals.
//
// Each snapshot is one self-contained JSON object:
//
//   {"t": <seconds>, "source": "engine",
//    "live": {"sim_time_s": ..., "energy_j": ..., ...},
//    "counters": {...}, "gauges": {...},
//    "quantiles": {"frames.delay_s": {"count": n, "p50": ..., "p90": ...,
//                  "p99": ..., "mean": ...}, ...}}
//
// `t` is whatever clock the caller samples on: the engine snapshots on a
// sim-time cadence (EngineConfig::telemetry_every), the CLI's sweep and
// fleet on wall time as each point or shard finishes.  `live` carries
// caller-provided instantaneous readings that are not (yet) registry
// entries — the engine fills counters/gauges only at end of run, so
// mid-run feeds need them.  set_min_wall_interval() throttles on real wall
// time regardless of `t` — the live-feed mode for scrape-rate consumers,
// and the configuration the bench_perf 5% overhead budget is measured in
// (a sim-time cadence on a simulator running thousands of times faster
// than real time is an analysis dump, not a live feed; its cost scales
// with the cadence, like --trace-jsonl).  0 (default) disables the
// throttle.  Schema documented in docs/OBSERVABILITY.md.
#pragma once

#include <chrono>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace dvs::obs {

class TelemetrySnapshotter {
 public:
  /// Named value pairs for the snapshot's "live" object.
  using Live = std::vector<std::pair<std::string, double>>;

  TelemetrySnapshotter() = default;
  /// Writes to `os` (not owned); `os` must outlive the snapshotter.
  explicit TelemetrySnapshotter(std::ostream* os) : os_(os) {}

  /// Opens `path` for appending snapshots; returns false (and stays
  /// inactive) when the file cannot be opened.
  bool open(const std::string& path);

  [[nodiscard]] bool active() const { return os_ != nullptr; }
  [[nodiscard]] std::size_t snapshots_written() const { return written_; }

  /// Snapshots closer together than this in *wall* time are dropped,
  /// whatever clock `t` runs on (the scrape-rate live-feed throttle).
  void set_min_wall_interval(double seconds) { min_wall_ = seconds; }

  /// Appends one snapshot line; no-op when inactive or throttled.
  void snapshot(double t, const std::string& source,
                const MetricsRegistry& reg, const Live& live = {});

 private:
  std::ofstream file_;
  std::ostream* os_ = nullptr;
  double min_wall_ = 0.0;
  std::chrono::steady_clock::time_point last_wall_{};
  std::size_t written_ = 0;
};

}  // namespace dvs::obs
