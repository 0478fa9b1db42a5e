// Full-system simulation: workload -> WLAN -> frame buffer -> decoder, with
// the combined power manager (DVS governor in the active state, DPM policy
// across idle periods) driving the SmartBadge model.
//
// This is the executable version of Figure 1 (workload / queue / device /
// power manager) with the expanded active state of Figure 8: while frames
// flow, the governor picks the (f, V) sub-state; when the queue drains and
// stays empty past a short hardware-idle filter, the DPM policy takes over
// and schedules sleep transitions; the next arrival wakes everything up and
// pays the Table 1 wakeup latencies.
//
// Modelling choices (documented in DESIGN.md):
//  * A decode in progress completes at the frequency it started with; the
//    governor's desired step commits at decode boundaries, paying the
//    ~150 us switch latency as CPU-busy time.
//  * The WLAN is active for a short burst around each frame reception and
//    auto-idles after, like every component ("the idle state is entered
//    immediately by each component ... as soon as that component is not
//    accessed").
//  * MP3 decode touches CPU+SRAM; MPEG decode touches CPU+DRAM and keeps
//    the display lit between frames.  The display auto-idles when playback
//    stops (at the idle filter), independent of the DPM policy.
//  * Arrival-rate samples are gated: a gap of 2 s or more is an idle
//    period, not rate information (the paper models idle-state arrivals
//    separately from the active state).
//
// Kernel mapping: each frame costs two kernel events, its arrival and its
// decode completion (DPM steps, wakeup completions and the samplers add
// their own).  The rest of a frame's state changes keep the exact kernel
// position, (time, FIFO seq), that an event of their own would have had:
//  * a WLAN-on or decode start due at the handler's own time runs when
//    that handler returns, under a reserved seq.  When a live event is
//    already due at that time it was scheduled earlier and runs first, so
//    the work is scheduled as an event instead, as is work due later;
//  * the WLAN's and the memory's timed returns to idle are held as
//    (at, seq) records, applied by the kernel's dispatch hook before the
//    first event they precede and, after the last event, at their own
//    times.  Every trace record, ledger charge and metric comes out as if
//    each step were its own event; only the sim.* kernel counters differ.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "core/detectors.hpp"
#include "core/metrics.hpp"
#include "dpm/policy.hpp"
#include "dpm/power_manager.hpp"
#include "fault/hw_faults.hpp"
#include "hw/smartbadge.hpp"
#include "obs/attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry/snapshotter.hpp"
#include "obs/telemetry/span_profiler.hpp"
#include "obs/trace_recorder.hpp"
#include "policy/governor_base.hpp"
#include "policy/watchdog.hpp"
#include "queue/frame_buffer.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace dvs::core {

/// One playback item: a trace (absolute timestamps) and the decoder that
/// services it.  The nominal rates seed adaptive detectors at item start —
/// application-level knowledge (the app and its offline-measured curve),
/// never the clip's actual rates.
struct PlaybackItem {
  workload::FrameTrace trace;
  workload::DecoderModel decoder;
  Hertz nominal_arrival;
  Hertz nominal_service_at_max;
  Seconds end;  ///< absolute end of this item
};

/// Every engine knob shared verbatim between the caller-facing RunOptions
/// and the engine-facing EngineConfig.  The two structs inherit this base,
/// and to_engine_config() copies it in one slice assignment — add a field
/// here and it reaches the engine with no per-field plumbing (the drift
/// that once silently dropped buffer_capacity cannot recur).  Only the CPU
/// model and the detector configuration differ between the layers
/// (pointer-to-shared vs owned value) and stay in the derived structs.
struct EngineSettings {
  DetectorKind detector = DetectorKind::ChangePoint;
  /// Governor policy: a policy::GovernorFactory key ("paper", "max",
  /// "qdpm", ...).  The engine builds one governor per media type through
  /// the factory; "paper" reproduces the paper's controller exactly.
  std::string policy = "paper";
  Seconds target_delay{0.1};
  /// Service-time variability assumed by the frequency policy: 1.0 = the
  /// paper's M/M/1 (Eq. 5); other values use the M/G/1 P-K inversion.
  double service_cv2 = 1.0;
  dpm::DpmPolicyPtr dpm_policy;  ///< null -> NeverSleepPolicy
  std::size_t buffer_capacity = 0;  ///< 0 = unbounded
  /// > 0: sample the instantaneous whole-badge power on this period into
  /// Metrics::power_trace (for power-profile plots).
  Seconds power_sample_period{0.0};
  std::uint64_t seed = 1;
  /// Graceful-degradation watchdog, armed in every adaptive governor when
  /// enabled (see policy/watchdog.hpp).  Off by default.
  policy::WatchdogConfig watchdog{};
  /// Hardware fault injection (wakeup faults, failed frequency
  /// transitions, stuck rail); the injector draws from a substream of
  /// `seed`.  Empty plan (default) = fault-free hardware.
  fault::HwFaultPlan hw_faults{};
  /// Optional observability: structured trace events fan out to the
  /// recorder's sinks, and run statistics land in the registry.  Both may
  /// be null (the default); an untraced run pays only a pointer test per
  /// instrumentation site.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional attribution: charges every Joule and every second of frame
  /// delay to a (component, state, frequency step, cause) key; per-key sums
  /// reconcile with the Metrics totals (see obs/attribution.hpp).  One
  /// ledger per run — it is plain single-run state.
  obs::AttributionLedger* ledger = nullptr;
  /// Always-on flight recorder: a fixed ring of compact records costing ~a
  /// store per event, auto-dumped on watchdog escalation, fault injection,
  /// or an exception escaping the run (see obs/flight_recorder.hpp).
  bool flight_recorder = true;
  std::size_t flight_capacity = obs::FlightRecorder::kDefaultCapacity;
  /// Non-empty: arms the auto-dump at this path.
  std::string flight_dump_path;
  /// Optional live telemetry: when both are set, the engine snapshots the
  /// metrics registry (plus instantaneous "live" readings) every
  /// `telemetry_every` sim-seconds into the snapshotter's JSONL sink
  /// (obs/telemetry/snapshotter.hpp).  Most useful together with
  /// `metrics`; without it the snapshots carry only the live readings.
  obs::TelemetrySnapshotter* telemetry = nullptr;
  Seconds telemetry_every{0.0};
  /// Optional self-profiling: hierarchical spans around the engine's event
  /// handlers (obs/telemetry/span_profiler.hpp).  Null (default) costs one
  /// pointer test per handler; the enabled path is budgeted at <= 5% in
  /// bench_perf.  The caller finalizes and writes the profile.
  obs::SpanProfiler* profiler = nullptr;
};

struct EngineConfig : EngineSettings {
  /// The processor model the badge is built around (default: stock
  /// SA-1100; see hw/cpu_catalog.hpp for alternatives).  Item decoders must
  /// be parameterized with this part's max frequency.
  hw::Sa1100 cpu{};
  DetectorFactoryConfig detectors{};
};

class Engine {
 public:
  /// Items must be time-ordered and non-overlapping.
  Engine(EngineConfig cfg, std::vector<PlaybackItem> items);

  /// Runs the whole session and returns the metrics.  Single-shot.
  Metrics run();

  /// Read access for tests.
  [[nodiscard]] const hw::SmartBadge& badge() const { return badge_; }
  [[nodiscard]] const queue::FrameBuffer& buffer() const { return buffer_; }
  [[nodiscard]] const dpm::PowerManager& power_manager() const { return *pm_; }
  /// The governor serving `type`, or null before its first frame arrived.
  /// Interface-typed: callers must not assume a concrete policy.
  [[nodiscard]] const policy::Governor* governor(workload::MediaType type) const {
    return governors_[media_index(type)].get();
  }
  /// The hardware fault injector, or null when the plan is empty.
  [[nodiscard]] const fault::HwFaultInjector* fault_injector() const {
    return injector_.get();
  }
  /// The flight recorder, or null when EngineConfig::flight_recorder is off.
  [[nodiscard]] const obs::FlightRecorder* flight_recorder() const {
    return flight_.get();
  }

 private:
  static constexpr std::size_t kMediaTypes = 2;  ///< Mp3Audio, MpegVideo
  static constexpr std::size_t media_index(workload::MediaType type) {
    return static_cast<std::size_t>(type);
  }

  policy::Governor& governor_for(workload::MediaType type);
  const workload::DecoderModel& decoder_for(workload::MediaType type) const;

  void schedule_arrival_cursor();
  void handle_arrival();
  void ensure_media_context(const PlaybackItem& item);
  void start_wlan_burst(Seconds at);
  void wlan_on();
  void maybe_start_decode(Seconds at);
  void handle_decode_start();
  void handle_decode_complete(workload::Frame frame, Seconds pure_decode,
                              MegaHertz freq);

  /// Work a handler would schedule at now(): held with the seq its event
  /// would have had and run by run_follow_ups() when the handler returns.
  struct FollowUp {
    std::uint64_t seq = 0;
    bool due = false;
  };
  /// A component's timed return to idle, applied at its (at, seq) kernel
  /// position by apply_transitions_before().
  struct Transition {
    Seconds at{0.0};
    std::uint64_t seq = 0;
    hw::BadgeComponentId component = hw::BadgeComponentId::Cpu;
    bool pending = false;
  };
  /// Holds `follow_up` for the end of the handler when `at` is now and no
  /// live event is due now (which would run first); false = schedule it.
  bool defer_follow_up(Seconds at, FollowUp& follow_up);
  void run_follow_ups();
  /// Applies every held transition ordered before (at, seq), in order, at
  /// its own time — the kernel's dispatch hook and each follow-up call it.
  void apply_transitions_before(Seconds at, std::uint64_t seq);
  void activate_components(workload::MediaType type, Seconds now);
  void deactivate_components(workload::MediaType type, Seconds now);
  void arm_dpm(Seconds now);
  void cancel_arm();
  void schedule_power_sample(Seconds at);
  void schedule_telemetry_snapshot(Seconds at);
  void take_telemetry_snapshot(Seconds now);
  void note_frequency(Seconds now);
  Metrics collect(Seconds end);

  void fill_registry(const Metrics& m);

  EngineConfig cfg_;
  std::vector<PlaybackItem> items_;

  hw::SmartBadge badge_;
  sim::Simulator sim_;
  queue::FrameBuffer buffer_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  /// Every decision site's instrumentation; null when no sink is on.
  std::unique_ptr<obs::Probe> probe_;
  std::unique_ptr<dpm::PowerManager> pm_;
  std::unique_ptr<fault::HwFaultInjector> injector_;
  // Indexed by media_index(): governor_for() on the per-frame path is an
  // array load, not a tree walk.  Null until that media type's first frame.
  // Interface-typed so any factory-registered policy can serve.
  std::array<policy::GovernorPtr, kMediaTypes> governors_;

  // Arrival cursor.
  std::size_t item_ = 0;
  std::size_t frame_idx_ = 0;
  std::optional<Seconds> next_arrival_;
  std::optional<Seconds> prev_arrival_;
  std::size_t active_item_ = SIZE_MAX;

  // Decode state.
  bool busy_ = false;
  bool decode_start_pending_ = false;  ///< deferred or scheduled

  // Same-time follow-ups (WLAN-on before decode start: that is their seq
  // order) and the two timed transitions.  One of each suffices: one decode
  // runs at a time, and a WLAN-off is superseded by the next burst's.
  FollowUp wlan_on_;
  FollowUp decode_start_;
  Transition wlan_off_;
  Transition mem_release_;
  Seconds transitions_until_{0.0};  ///< latest applied transition time

  // Device readiness after DPM wakeups.
  Seconds device_ready_{0.0};

  // WLAN burst bookkeeping.
  Seconds wlan_busy_until_{0.0};

  // DPM arming.
  sim::EventId arm_event_{};

  // Frequency tracking for metrics.
  TimeWeightedStats freq_tw_;
  Seconds last_freq_note_{0.0};

  std::uint64_t frames_arrived_ = 0;
  std::vector<std::pair<double, double>> power_trace_;
  bool ran_ = false;

  // Self-profiling span tree (ids valid only when profiler_ != nullptr;
  // every use is guarded by the null test in ScopedSpan).
  obs::SpanProfiler* profiler_ = nullptr;
  int span_arrival_ = 0;
  int span_decode_start_ = 0;
  int span_decode_done_ = 0;
  int span_governor_ = 0;
  int span_dpm_idle_ = 0;
  int span_power_sample_ = 0;
  int span_telemetry_ = 0;
};

}  // namespace dvs::core
