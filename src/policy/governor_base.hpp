// The abstract governor interface: the run-time half of the power manager
// while the system is active, factored so any policy — the paper's
// detector-driven controller, a learned policy, a pinned baseline — can
// drive the engine through the same five entry points:
//
//   initialize / on_arrival / on_decode_complete / desired_step / apply
//
// The base class owns everything that is policy-invariant: the hardware
// handle, the committed-step bookkeeping, the instrumentation probe and the
// hardware step filter.  apply() is the single commit path — every
// implementation pays the same switch latency and reports the same
// freq_commit to the probe, so traces, the ledger's frequency regime and
// the flight recorder keep working for any policy.
//
// Concrete policies are constructed through the string-keyed
// GovernorFactory (policy/governor_factory.hpp), never by the engine
// naming a concrete type.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "hw/smartbadge.hpp"
#include "obs/probe.hpp"
#include "policy/watchdog.hpp"

namespace dvs::policy {

class Governor {
 public:
  /// `probe` receives every commit (and the policy's own decisions); null
  /// when the run is uninstrumented.
  explicit Governor(hw::SmartBadge& badge, obs::Probe* probe = nullptr)
      : badge_(&badge),
        probe_(probe),
        desired_step_(badge.cpu().num_steps() - 1) {}
  virtual ~Governor() = default;
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  /// Seeds the policy's estimates (e.g. with the first clip's nominal
  /// rates), recomputes the desired step, and applies it immediately
  /// (callers initialize while the device is idle, where an immediate
  /// switch is safe).  Returns the switch latency paid.
  virtual Seconds initialize(Hertz arrival_rate, Hertz service_rate_at_max,
                             Seconds now) = 0;

  /// Frame arrived at `now`, `interarrival` after the previous one;
  /// `buffered_frames` is the queue length after the push.
  virtual void on_arrival(Seconds now, Seconds interarrival,
                          double buffered_frames = 0.0) = 0;

  /// A frame finished decoding at `now`; `decode_time` is the pure decode
  /// duration, `during` the frequency it ran at, and `buffered_frames` the
  /// queue length after the departure.  `frame_delay` is the frame's total
  /// (queue + decode) delay; pass a negative value when unknown.
  virtual void on_decode_complete(Seconds now, Seconds decode_time,
                                  MegaHertz during,
                                  double buffered_frames = 0.0,
                                  Seconds frame_delay = Seconds{-1.0}) = 0;

  /// Step the policy currently wants.
  [[nodiscard]] std::size_t desired_step() const { return desired_step_; }

  /// Commits the desired step to the hardware (called at decode
  /// boundaries).  Returns the switch latency paid (zero if unchanged).
  /// Shared across all policies: this is the one place steps are committed,
  /// faults are filtered, and freq_commit is reported.
  Seconds apply(Seconds now);

  /// True when the policy adapts to observed samples (false for pinned
  /// baselines, which the engine need not feed detector truth).
  [[nodiscard]] virtual bool adaptive() const = 0;
  [[nodiscard]] virtual Hertz arrival_estimate() const = 0;
  [[nodiscard]] virtual Hertz service_estimate_at_max() const = 0;
  /// Short name of the rate estimator driving the policy ("change-point",
  /// "max", "qdpm", ...) for traces and reports.
  [[nodiscard]] virtual std::string detector_name() const = 0;

  /// Number of committed frequency switches.
  [[nodiscard]] int retune_count() const { return retunes_; }

  /// Arms the graceful-degradation watchdog.  Policies without a
  /// degradation story ignore it.
  virtual void enable_watchdog(const WatchdogConfig& cfg,
                               Seconds target_delay) {
    (void)cfg;
    (void)target_delay;
  }

  /// Watchdog state, or null when not armed / not supported.
  [[nodiscard]] virtual const Watchdog* watchdog() const { return nullptr; }

  /// True while a watchdog holds the policy at the top step.
  [[nodiscard]] virtual bool degraded() const { return false; }

  /// Installs a hardware-fault filter consulted by apply(): it receives
  /// (now, current step, desired step) and returns the step the hardware
  /// will actually take (e.g. the current one when a frequency transition
  /// fails).  Null clears the filter.
  using StepFilter =
      std::function<std::size_t(Seconds, std::size_t, std::size_t)>;
  void set_step_filter(StepFilter filter) { step_filter_ = std::move(filter); }

 protected:
  [[nodiscard]] hw::SmartBadge& badge() { return *badge_; }
  [[nodiscard]] const hw::SmartBadge& badge() const { return *badge_; }
  void set_desired_step(std::size_t step) { desired_step_ = step; }
  [[nodiscard]] obs::Probe* probe() const { return probe_; }

 private:
  hw::SmartBadge* badge_;
  obs::Probe* probe_;
  std::size_t desired_step_;
  int retunes_ = 0;
  StepFilter step_filter_;
};

using GovernorPtr = std::unique_ptr<Governor>;

}  // namespace dvs::policy
