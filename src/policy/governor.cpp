#include "policy/governor.hpp"

#include <utility>

#include "common/check.hpp"

namespace dvs::policy {

DvsGovernor::DvsGovernor(hw::SmartBadge& badge,
                         const workload::DecoderModel& decoder,
                         FrequencyPolicy policy,
                         detect::RateDetectorPtr arrival_detector,
                         detect::RateDetectorPtr service_detector,
                         obs::Probe* probe)
    : DvsGovernor(badge, decoder, std::move(policy), std::move(arrival_detector),
                  std::move(service_detector), probe, /*adaptive=*/true) {
  DVS_CHECK_MSG(arrival_detector_ && service_detector_,
                "DvsGovernor: adaptive governor needs both detectors");
}

DvsGovernor::DvsGovernor(hw::SmartBadge& badge,
                         const workload::DecoderModel& decoder,
                         FrequencyPolicy policy,
                         detect::RateDetectorPtr arrival_detector,
                         detect::RateDetectorPtr service_detector,
                         obs::Probe* probe, bool adaptive)
    : Governor(badge, probe),
      decoder_(&decoder),
      policy_(std::move(policy)),
      arrival_detector_(std::move(arrival_detector)),
      service_detector_(std::move(service_detector)) {
  (void)adaptive;
}

std::unique_ptr<DvsGovernor> DvsGovernor::max_performance(
    hw::SmartBadge& badge, const workload::DecoderModel& decoder,
    FrequencyPolicy policy, obs::Probe* probe) {
  // Private ctor: make_unique cannot reach it.
  return std::unique_ptr<DvsGovernor>(
      new DvsGovernor(badge, decoder, std::move(policy), nullptr, nullptr,
                      probe, /*adaptive=*/false));
}

Seconds DvsGovernor::initialize(Hertz arrival_rate, Hertz service_rate_at_max,
                                Seconds now) {
  if (adaptive()) {
    arrival_detector_->reset(arrival_rate);
    service_detector_->reset(service_rate_at_max);
    recompute();
  } else {
    set_desired_step(badge().cpu().num_steps() - 1);
  }
  return apply(now);
}

void DvsGovernor::on_arrival(Seconds now, Seconds interarrival,
                             double buffered_frames) {
  if (!adaptive()) return;
  last_queue_len_ = buffered_frames;
  if (interarrival.value() <= 0.0) return;  // coincident arrivals carry no rate info
  arrival_detector_->on_sample(now, interarrival);
  report_decision(now, "arrival", *arrival_detector_);
  recompute();
}

void DvsGovernor::on_decode_complete(Seconds now, Seconds decode_time,
                                     MegaHertz during, double buffered_frames,
                                     Seconds frame_delay) {
  if (!adaptive()) return;
  last_queue_len_ = buffered_frames;
  const Seconds normalized = decoder_->normalize_to_max(decode_time, during);
  if (normalized.value() > 0.0) {
    service_detector_->on_sample(now, normalized);
    report_decision(now, "service", *service_detector_);
  }
  if (watchdog_ && frame_delay.value() >= 0.0) {
    switch (watchdog_->on_frame(now, frame_delay, buffered_frames)) {
      case WatchdogAction::kEscalate:
        // The pre-fault history in the detector windows is what made the
        // estimates stale; flush it and re-seed from the current estimates
        // so post-fault samples dominate quickly.
        arrival_detector_->reset(arrival_detector_->current_rate());
        service_detector_->reset(service_detector_->current_rate());
        degraded_ = true;
        if (probe() != nullptr) {
          probe()->watchdog_escalate(now, frame_delay, buffered_frames,
                                     watchdog_->current_backoff());
        }
        break;
      case WatchdogAction::kRecover:
        degraded_ = false;
        if (probe() != nullptr) {
          probe()->watchdog_recover(now, watchdog_->last_episode_length());
        }
        break;
      case WatchdogAction::kNone:
        break;
    }
  }
  recompute();
}

void DvsGovernor::enable_watchdog(const WatchdogConfig& cfg,
                                  Seconds target_delay) {
  if (!adaptive() || !cfg.enabled) return;
  watchdog_ = std::make_unique<Watchdog>(cfg, target_delay);
}

void DvsGovernor::report_decision(Seconds now, std::string_view stream,
                                  const detect::RateDetector& detector) const {
  if (probe() == nullptr) return;
  if (const detect::DetectorDecisionInfo* d = detector.last_decision()) {
    probe()->detector_decision(now, stream, d->ln_p_max, d->threshold,
                               d->detected, d->rate);
  }
}

void DvsGovernor::recompute() {
  std::size_t step = policy_.select_step(arrival_detector_->current_rate(),
                                         service_detector_->current_rate(),
                                         last_queue_len_);
  if (degraded_) step = badge().cpu().num_steps() - 1;
  set_desired_step(step);
}

Hertz DvsGovernor::arrival_estimate() const {
  return adaptive() ? arrival_detector_->current_rate() : Hertz{0.0};
}

Hertz DvsGovernor::service_estimate_at_max() const {
  return adaptive() ? service_detector_->current_rate() : Hertz{0.0};
}

std::string DvsGovernor::detector_name() const {
  return adaptive() ? arrival_detector_->name() : "max";
}

}  // namespace dvs::policy
