// Probe: the engine's one instrumentation path.
//
// Every decision site in the engine, governor, power manager, fault
// injector and hardware components makes one typed call here — what the
// power manager of the paper's Figure 1 sees of the workload, the queue
// and the device, made observable.  Each method owns its event's whole
// encoding: the structured trace payload, the attribution-ledger cause or
// charge, the flight recorder's compact (type, code, a, b) record and dump
// trigger, and the metrics histograms and counters (docs/OBSERVABILITY.md
// has the tables).
//
// The probe is built from the run's sinks once, before the run starts; a
// sink that is null (or a trace recorder without sinks) stays off for the
// whole run.  Owners hand out a null Probe* when every sink is off, so an
// uninstrumented run pays one pointer test per site.
//
// The parameters speak the model's vocabulary (media type, power state),
// which this header takes from the two header-only vocabulary files; the
// obs library still links nothing but dvs_common.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "hw/power_state.hpp"
#include "obs/attribution.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_recorder.hpp"
#include "workload/media.hpp"

namespace dvs::obs {

class Probe {
 public:
  /// The run's sinks; any may be null.
  struct Sinks {
    TraceRecorder* trace = nullptr;
    MetricsRegistry* metrics = nullptr;
    AttributionLedger* ledger = nullptr;
    FlightRecorder* flight = nullptr;
  };

  /// Fixes the enabled set and registers the probe's histograms (so a run
  /// with metrics reports them even when empty).  Counters are created on
  /// first increment, never up front.
  explicit Probe(const Sinks& sinks);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// The probe for `sinks`, or null when every sink is off.
  static std::unique_ptr<Probe> make(const Sinks& sinks);

  /// True when a trace sink is attached — sites gate payloads that cost
  /// work to build on this.
  [[nodiscard]] bool tracing() const { return trace_ != nullptr; }

  // The per-frame events are defined here, inline, and build a trace
  // payload only inside the trace test: an enabled probe with only the
  // flight recorder on (every sweep point) must stay within the flight
  // budget.

  // ---- frame path (engine) ------------------------------------------------
  void frame_arrival(Seconds now, std::uint64_t frame,
                     workload::MediaType media, std::size_t queue_len) {
    if (trace_ != nullptr) {
      emit(now, FrameArrival{frame, workload::to_string(media), queue_len});
    }
  }
  void frame_drop(Seconds now, std::uint64_t frame, workload::MediaType media);
  void decode_start(Seconds now, std::uint64_t frame,
                    workload::MediaType media, MegaHertz freq,
                    Seconds switch_latency) {
    if (trace_ != nullptr) {
      emit(now, DecodeStart{frame, workload::to_string(media), freq.value(),
                            switch_latency.value()});
    }
  }
  void decode_done(Seconds now, std::uint64_t frame, workload::MediaType media,
                   Seconds decode, Seconds delay, std::size_t queue_len,
                   Seconds target_delay) {
    if (metrics_ != nullptr) {
      delay_hist_->add(delay.value());
      decode_hist_->add(decode.value());
      delay_violation_hist_->add(delay.value() / target_delay.value());
    }
    if (trace_ != nullptr) {
      emit(now, DecodeDone{frame, workload::to_string(media), decode.value(),
                           delay.value(), queue_len});
    }
    if (ledger_ != nullptr) {
      ledger_->charge_delay(std::string(workload::to_string(media)),
                            delay.value());
    }
    flight(now, FlightEventType::DecodeDone, static_cast<unsigned>(media),
           delay.value(), static_cast<double>(queue_len));
  }

  // ---- detectors (engine, governor) ---------------------------------------
  /// The workload's rates changed (item start or switch); the next declared
  /// change feeds the detection-latency histogram.
  void rate_change(Seconds now) { rate_change_at_ = now; }
  void detector_sample(Seconds now, std::string_view stream,
                       std::string_view detector, Seconds interval,
                       Hertz estimate) {
    if (trace_ != nullptr) {
      emit(now, DetectorSample{stream, detector, interval.value(),
                               estimate.value()});
    }
  }
  void detector_decision(Seconds now, std::string_view stream,
                         double ln_p_max, double threshold, bool detected,
                         Hertz rate);

  // ---- governor -----------------------------------------------------------
  /// Call after the commit's accrual, which closed the interval at the old
  /// step: the ledger's step regime switches here.
  void freq_commit(Seconds now, std::size_t step, MegaHertz freq, Volts volts,
                   Seconds switch_latency) {
    if (trace_ != nullptr) {
      emit(now, FreqCommit{step, freq.value(), volts.value(),
                           switch_latency.value()});
    }
    flight(now, FlightEventType::FreqCommit, static_cast<unsigned>(step),
           freq.value(), switch_latency.value());
    if (ledger_ != nullptr) ledger_->set_freq_step(step);
  }
  void watchdog_escalate(Seconds now, Seconds delay, double queue_len,
                         Seconds backoff);
  void watchdog_recover(Seconds now, Seconds time_degraded);

  // ---- DPM (power manager) ------------------------------------------------
  void dpm_idle_enter(Seconds now, std::optional<Seconds> hint);
  /// Call after the sleep command's accrual.
  void dpm_sleep(Seconds now, hw::PowerState state);
  /// An idle period of `idle_length` ended at depth `left`.  When `left` is
  /// a sleep state the badge is waking: call after the wake command's
  /// accrual, and the wakeup transition is charged to the DPM.
  void idle_period_end(Seconds idle_length, hw::PowerState left);
  void dpm_wakeup(Seconds now, hw::PowerState from, Seconds latency,
                  Seconds idle_length);

  // ---- faults (fault injector) --------------------------------------------
  /// `kind`: "wakeup_delay", "wakeup_fail", "freq_fail" or "rail_stuck".
  void fault(Seconds now, std::string_view kind, double magnitude);

  // ---- hardware (components) ----------------------------------------------
  /// Component `index` (its badge slot) changed state; `power` is what it
  /// draws now.
  void component_state(Seconds now, std::uint16_t index,
                       std::string_view component, hw::PowerState from,
                       hw::PowerState to, MilliWatts power) {
    flight(now, FlightEventType::ComponentState,
           (static_cast<unsigned>(index) << 8) | static_cast<unsigned>(to),
           power.value(), 0.0);
    if (trace_ != nullptr) trace_state(now, component, from, to, power);
  }
  /// `delta` was just accrued over `dt` while the component sat in `state`
  /// (or ran a wakeup transition, `waking`).
  void accrual(const std::string& component, hw::PowerState state,
               bool waking, Joules delta, Seconds dt) {
    if (ledger_ != nullptr) charge(component, state, waking, delta, dt);
  }

 private:
  // The slow halves of the inline events, out of line so the fast paths
  // stay small enough to inline into their callers.  Callers test the
  // sink first.
  void emit(Seconds now, Payload payload);
  void charge(const std::string& component, hw::PowerState state,
              bool waking, Joules delta, Seconds dt);
  void trace_state(Seconds now, std::string_view component,
                   hw::PowerState from, hw::PowerState to, MilliWatts power);
  /// One flight-recorder slot, when the recorder is on.
  void flight(Seconds now, FlightEventType type, unsigned code, double a,
              double b) {
    if (flight_ != nullptr) {
      flight_->record(now.value(), type, static_cast<std::uint16_t>(code),
                      static_cast<float>(a), static_cast<float>(b));
    }
  }

  TraceRecorder* trace_;
  MetricsRegistry* metrics_;
  AttributionLedger* ledger_;
  FlightRecorder* flight_;
  HistogramMetric* delay_hist_ = nullptr;
  HistogramMetric* decode_hist_ = nullptr;
  /// Frame delay as a multiple of the target — the degradation fingerprint
  /// (mass above 1.0 = delay-target violations).
  HistogramMetric* delay_violation_hist_ = nullptr;
  HistogramMetric* detect_latency_hist_ = nullptr;
  HistogramMetric* idle_hist_ = nullptr;
  /// The detector counters, cached on their first increment.
  std::uint64_t* decisions_ = nullptr;
  std::uint64_t* changes_ = nullptr;
  /// Time of the last workload rate change not yet acknowledged by a
  /// detector.
  std::optional<Seconds> rate_change_at_;
};

}  // namespace dvs::obs
