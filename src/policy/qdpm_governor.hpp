// Q-DPM: a model-free tabular Q-learning DVS policy.
//
// Where the paper's governor inverts a queueing formula, this policy
// learns the frequency-step choice online (Q-DPM lineage, PAPERS.md): the
// state is (quantized utilization at the top step, quantized queue
// length), the actions are the CPU's frequency steps, and the reward
// trades the step's energy-per-cycle ratio (V/Vmax)^2 against delay-target
// violations.  It needs no TISMDP solve, no detector characterization, and
// no queueing model — which is exactly what makes it a good stress of the
// policy::Governor interface: the engine wiring must not assume detectors
// exist.
//
// Exploration draws come from a dedicated Rng seeded through the shared
// mix_seed substream discipline, so runs are bit-reproducible and
// jobs-count invariant.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hw/smartbadge.hpp"
#include "policy/governor_base.hpp"
#include "workload/decoder_model.hpp"

namespace dvs::policy {

class QdpmGovernor final : public Governor {
 public:
  struct Config {
    double alpha = 0.15;          ///< Q-learning rate
    double gamma = 0.9;           ///< discount factor
    double epsilon0 = 0.2;        ///< initial exploration probability
    double epsilon_min = 0.02;    ///< exploration floor
    double epsilon_decay = 0.998; ///< multiplicative decay per decision
    double delay_penalty = 4.0;   ///< reward weight on delay/target overrun
    double ema_gain = 0.05;       ///< internal arrival/service estimators
    std::size_t load_bins = 8;    ///< utilization quantization
    std::size_t queue_bins = 5;   ///< queue-length quantization
  };

  QdpmGovernor(hw::SmartBadge& badge, const workload::DecoderModel& decoder,
               Seconds target_delay, std::uint64_t seed, Config cfg,
               obs::Probe* probe = nullptr);
  /// Default-Config overload (a default argument would need the nested
  /// aggregate complete before the enclosing class is).
  QdpmGovernor(hw::SmartBadge& badge, const workload::DecoderModel& decoder,
               Seconds target_delay, std::uint64_t seed,
               obs::Probe* probe = nullptr);

  Seconds initialize(Hertz arrival_rate, Hertz service_rate_at_max,
                     Seconds now) override;
  void on_arrival(Seconds now, Seconds interarrival,
                  double buffered_frames = 0.0) override;
  void on_decode_complete(Seconds now, Seconds decode_time, MegaHertz during,
                          double buffered_frames = 0.0,
                          Seconds frame_delay = Seconds{-1.0}) override;

  [[nodiscard]] bool adaptive() const override { return true; }
  [[nodiscard]] Hertz arrival_estimate() const override {
    return Hertz{arrival_rate_};
  }
  [[nodiscard]] Hertz service_estimate_at_max() const override {
    return Hertz{service_rate_max_};
  }
  [[nodiscard]] std::string detector_name() const override { return "qdpm"; }

  /// Test access: current exploration probability and Q-table shape.
  [[nodiscard]] double epsilon() const { return epsilon_; }
  [[nodiscard]] std::size_t num_states() const {
    return cfg_.load_bins * cfg_.queue_bins;
  }
  [[nodiscard]] std::size_t num_actions() const { return num_actions_; }
  [[nodiscard]] double q_value(std::size_t state, std::size_t action) const {
    return q_[state * num_actions_ + action];
  }
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }

 private:
  [[nodiscard]] std::size_t state_of(double buffered_frames) const;
  [[nodiscard]] std::size_t greedy_action(std::size_t state) const;
  void decide(std::size_t state);

  const workload::DecoderModel* decoder_;
  Config cfg_;
  Seconds target_delay_;
  Rng rng_;
  std::size_t num_actions_;
  std::vector<double> q_;  ///< row-major [state][action]
  double arrival_rate_ = 0.0;      ///< EMA, frames/s
  double service_rate_max_ = 0.0;  ///< EMA, frames/s at the top step
  double epsilon_;
  std::size_t prev_state_ = 0;
  std::size_t prev_action_ = 0;
  bool has_prev_ = false;
  std::uint64_t decisions_ = 0;
};

}  // namespace dvs::policy
