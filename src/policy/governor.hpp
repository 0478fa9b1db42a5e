// The paper's DVS governor: detectors + frequency policy, producing a
// desired CPU step through the policy::Governor interface.
//
// This is the run-time half of the paper's power manager while the system
// is active: "the PM checks if the rate of incoming or decoding frames has
// changed, and then adjusts the CPU frequency and voltage accordingly."
//
// The governor owns two detectors — one on frame interarrival times, one on
// decode times normalized to the top frequency step — and recomputes the
// desired step whenever either estimate moves.  The system simulation
// applies the desired step at decode boundaries (a decode in progress
// finishes at the frequency it started with), paying the hardware's switch
// latency through the base class's apply().
//
// Registered with the GovernorFactory as "paper" (adaptive) and "max" (the
// pinned top-step baseline built by max_performance()).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "detect/detector.hpp"
#include "hw/smartbadge.hpp"
#include "policy/frequency_policy.hpp"
#include "policy/governor_base.hpp"
#include "policy/watchdog.hpp"
#include "workload/decoder_model.hpp"

namespace dvs::policy {

class DvsGovernor : public Governor {
 public:
  /// An adaptive governor.  Both detectors must be non-null.  `probe`
  /// (may be null) also receives the detectors' decisions and the
  /// watchdog's escalations and recoveries.
  DvsGovernor(hw::SmartBadge& badge, const workload::DecoderModel& decoder,
              FrequencyPolicy policy, detect::RateDetectorPtr arrival_detector,
              detect::RateDetectorPtr service_detector,
              obs::Probe* probe = nullptr);

  /// The "Max" baseline: pins the CPU at the top step and ignores samples.
  static std::unique_ptr<DvsGovernor> max_performance(
      hw::SmartBadge& badge, const workload::DecoderModel& decoder,
      FrequencyPolicy policy, obs::Probe* probe = nullptr);

  Seconds initialize(Hertz arrival_rate, Hertz service_rate_at_max,
                     Seconds now) override;
  void on_arrival(Seconds now, Seconds interarrival,
                  double buffered_frames = 0.0) override;
  void on_decode_complete(Seconds now, Seconds decode_time, MegaHertz during,
                          double buffered_frames = 0.0,
                          Seconds frame_delay = Seconds{-1.0}) override;

  [[nodiscard]] bool adaptive() const override {
    return arrival_detector_ != nullptr;
  }
  [[nodiscard]] Hertz arrival_estimate() const override;
  [[nodiscard]] Hertz service_estimate_at_max() const override;
  [[nodiscard]] const FrequencyPolicy& policy() const { return policy_; }
  [[nodiscard]] const workload::DecoderModel& decoder() const { return *decoder_; }
  [[nodiscard]] std::string detector_name() const override;

  /// Arms the graceful-degradation watchdog (adaptive governors only; a
  /// no-op for Max, which already runs at the top step).  While degraded
  /// the governor clamps the desired step to maximum and has reset its
  /// detectors; recovery hands control back to the frequency policy.
  void enable_watchdog(const WatchdogConfig& cfg, Seconds target_delay) override;

  /// Watchdog state, or null when not armed.
  [[nodiscard]] const Watchdog* watchdog() const override {
    return watchdog_.get();
  }

  /// True while the watchdog holds the governor at the top step.
  [[nodiscard]] bool degraded() const override { return degraded_; }

 private:
  DvsGovernor(hw::SmartBadge& badge, const workload::DecoderModel& decoder,
              FrequencyPolicy policy, detect::RateDetectorPtr arrival_detector,
              detect::RateDetectorPtr service_detector, obs::Probe* probe,
              bool adaptive);

  /// Reports the decision `detector`'s latest sample made, if any.
  void report_decision(Seconds now, std::string_view stream,
                       const detect::RateDetector& detector) const;
  void recompute();

  const workload::DecoderModel* decoder_;
  FrequencyPolicy policy_;
  detect::RateDetectorPtr arrival_detector_;
  detect::RateDetectorPtr service_detector_;
  double last_queue_len_ = 0.0;
  std::unique_ptr<Watchdog> watchdog_;
  bool degraded_ = false;
};

}  // namespace dvs::policy
