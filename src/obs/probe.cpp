#include "obs/probe.hpp"

#include <utility>

namespace dvs::obs {

std::unique_ptr<Probe> Probe::make(const Sinks& sinks) {
  const bool tracing = sinks.trace != nullptr && sinks.trace->active();
  if (!tracing && sinks.metrics == nullptr && sinks.ledger == nullptr &&
      sinks.flight == nullptr) {
    return nullptr;
  }
  return std::make_unique<Probe>(sinks);
}

Probe::Probe(const Sinks& sinks)
    : trace_(sinks.trace != nullptr && sinks.trace->active() ? sinks.trace
                                                             : nullptr),
      metrics_(sinks.metrics),
      ledger_(sinks.ledger),
      flight_(sinks.flight) {
  if (metrics_ == nullptr) return;
  delay_hist_ = &metrics_->histogram("frames.delay_s", 0.0, 2.0);
  decode_hist_ = &metrics_->histogram("frames.decode_s", 0.0, 0.2);
  detect_latency_hist_ =
      &metrics_->histogram("detector.detection_latency_s", 0.0, 60.0);
  delay_violation_hist_ =
      &metrics_->histogram("frames.delay_over_target", 0.0, 10.0);
  idle_hist_ = &metrics_->histogram("dpm.idle_period_s", 0.0, 120.0);
}

void Probe::emit(Seconds now, Payload payload) {
  trace_->record(now.value(), std::move(payload));
}

void Probe::charge(const std::string& component, hw::PowerState state,
                   bool waking, Joules delta, Seconds dt) {
  ledger_->charge_energy(component,
                         waking ? "wake" : std::string(hw::to_string(state)),
                         delta.value(), dt.value());
}

void Probe::trace_state(Seconds now, std::string_view component,
                        hw::PowerState from, hw::PowerState to,
                        MilliWatts power) {
  emit(now, ComponentState{component, hw::to_string(from), hw::to_string(to),
                           power.value()});
}

void Probe::frame_drop(Seconds now, std::uint64_t frame,
                       workload::MediaType media) {
  if (trace_ != nullptr) {
    emit(now, FrameDrop{frame, workload::to_string(media)});
  }
  flight(now, FlightEventType::FrameDrop, static_cast<unsigned>(media),
         static_cast<double>(frame), 0.0);
}

void Probe::detector_decision(Seconds now, std::string_view stream,
                              double ln_p_max, double threshold, bool detected,
                              Hertz rate) {
  if (trace_ != nullptr) {
    emit(now, DetectorDecision{stream, ln_p_max, threshold, detected,
                               rate.value()});
  }
  if (detected && ledger_ != nullptr) ledger_->set_cause(Cause::DetectorChange);
  if (metrics_ == nullptr) return;
  // Registered on first use, as before, so a run without decisions exports
  // no detector counters; the reference is cached from then on.
  if (decisions_ == nullptr) {
    decisions_ = &metrics_->counter("detector.decisions");
  }
  ++*decisions_;
  if (!detected) return;
  if (changes_ == nullptr) changes_ = &metrics_->counter("detector.changes");
  ++*changes_;
  if (rate_change_at_) {
    detect_latency_hist_->add((now - *rate_change_at_).value());
    rate_change_at_.reset();
  }
}

void Probe::watchdog_escalate(Seconds now, Seconds delay, double queue_len,
                              Seconds backoff) {
  if (trace_ != nullptr) {
    emit(now, WatchdogEscalate{delay.value(), queue_len, backoff.value()});
  }
  if (ledger_ != nullptr) ledger_->set_cause(Cause::WatchdogEscalate);
  flight(now, FlightEventType::WatchdogEscalate, 0, delay.value(), queue_len);
  if (flight_ != nullptr) flight_->trigger(now.value(), "watchdog-escalate");
}

void Probe::watchdog_recover(Seconds now, Seconds time_degraded) {
  if (trace_ != nullptr) emit(now, WatchdogRecover{time_degraded.value()});
  if (ledger_ != nullptr) ledger_->set_cause(Cause::WatchdogRecover);
  flight(now, FlightEventType::WatchdogRecover, 0, time_degraded.value(), 0.0);
}

void Probe::dpm_idle_enter(Seconds now, std::optional<Seconds> hint) {
  const double hint_s = hint ? hint->value() : -1.0;
  if (trace_ != nullptr) emit(now, DpmIdleEnter{hint_s});
  flight(now, FlightEventType::DpmIdleEnter, 0, hint_s, 0.0);
}

void Probe::dpm_sleep(Seconds now, hw::PowerState state) {
  if (trace_ != nullptr) emit(now, DpmSleepCommand{hw::to_string(state)});
  if (ledger_ != nullptr) ledger_->set_cause(Cause::DpmSleep);
  flight(now, FlightEventType::DpmSleep, static_cast<unsigned>(state), 0.0,
         0.0);
}

void Probe::idle_period_end(Seconds idle_length, hw::PowerState left) {
  if (metrics_ != nullptr) idle_hist_->add(idle_length.value());
  if (hw::is_sleep_state(left) && ledger_ != nullptr) {
    ledger_->set_cause(Cause::DpmWakeup);
  }
}

void Probe::dpm_wakeup(Seconds now, hw::PowerState from, Seconds latency,
                       Seconds idle_length) {
  if (trace_ != nullptr) {
    emit(now, DpmWakeup{hw::to_string(from), latency.value(),
                        idle_length.value()});
  }
  flight(now, FlightEventType::DpmWakeup, static_cast<unsigned>(from),
         latency.value(), idle_length.value());
}

void Probe::fault(Seconds now, std::string_view kind, double magnitude) {
  if (trace_ != nullptr) emit(now, FaultInjected{kind, magnitude});
  if (ledger_ != nullptr) ledger_->set_cause(Cause::Fault);
  if (flight_ == nullptr) return;
  // Stable fault-kind codes for the compact record (docs/OBSERVABILITY.md).
  unsigned code = 0;
  if (kind == "wakeup_fail") code = 1;
  else if (kind == "freq_fail") code = 2;
  else if (kind == "rail_stuck") code = 3;
  flight(now, FlightEventType::FaultInjected, code, magnitude, 0.0);
  flight_->trigger(now.value(), "fault-injected");
}

}  // namespace dvs::obs
