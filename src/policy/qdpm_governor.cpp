#include "policy/qdpm_governor.hpp"

#include <algorithm>
#include <cmath>

namespace dvs::policy {

namespace {
// Substream tag separating Q-DPM exploration draws from every other
// consumer of the run seed (dpm policies, fault injector, wakeup draws).
constexpr std::uint64_t kQdpmStream = 0x71d9aULL;
// Utilization above which everything maps to the top load bin; >1 keeps
// resolution around the saturation knee instead of clipping at rho = 1.
constexpr double kMaxLoad = 1.25;
// Cap on the per-frame delay penalty so one pathological frame cannot
// blow up the Q-values.
constexpr double kMaxPenalty = 10.0;
}  // namespace

QdpmGovernor::QdpmGovernor(hw::SmartBadge& badge,
                           const workload::DecoderModel& decoder,
                           Seconds target_delay, std::uint64_t seed, Config cfg,
                           obs::Probe* probe)
    : Governor(badge, probe),
      decoder_(&decoder),
      cfg_(cfg),
      target_delay_(target_delay),
      rng_(mix_seed(seed, kQdpmStream)),
      num_actions_(badge.cpu().num_steps()),
      q_(cfg.load_bins * cfg.queue_bins * badge.cpu().num_steps(), 0.0),
      epsilon_(cfg.epsilon0) {}

QdpmGovernor::QdpmGovernor(hw::SmartBadge& badge,
                           const workload::DecoderModel& decoder,
                           Seconds target_delay, std::uint64_t seed,
                           obs::Probe* probe)
    : QdpmGovernor(badge, decoder, target_delay, seed, Config{}, probe) {}

std::size_t QdpmGovernor::state_of(double buffered_frames) const {
  double rho = kMaxLoad;
  if (service_rate_max_ > 0.0) {
    rho = std::min(kMaxLoad, arrival_rate_ / service_rate_max_);
  }
  std::size_t load = static_cast<std::size_t>(
      rho / kMaxLoad * static_cast<double>(cfg_.load_bins));
  load = std::min(load, cfg_.load_bins - 1);
  const std::size_t queue = std::min(
      static_cast<std::size_t>(std::max(0.0, buffered_frames)),
      cfg_.queue_bins - 1);
  return load * cfg_.queue_bins + queue;
}

std::size_t QdpmGovernor::greedy_action(std::size_t state) const {
  // Scan from the top step down so an untrained (all-zero) table plays it
  // safe at maximum performance; the energy term then teaches it to relax.
  std::size_t best = num_actions_ - 1;
  double best_q = q_[state * num_actions_ + best];
  for (std::size_t a = num_actions_ - 1; a-- > 0;) {
    const double qa = q_[state * num_actions_ + a];
    if (qa > best_q) {
      best_q = qa;
      best = a;
    }
  }
  return best;
}

void QdpmGovernor::decide(std::size_t state) {
  std::size_t action;
  if (state % cfg_.queue_bins == cfg_.queue_bins - 1) {
    // Saturation backstop: with the queue bin pegged, exploration must not
    // pick a slow step — a single slow decode under overload digs a backlog
    // the learner then pays for across many frames.  Pin the top step; the
    // Q-update still credits it, so "run flat out when saturated" is also
    // what the table converges to.  No epsilon decay here: a backstop frame
    // is not an eps-greedy decision, and a sustained overload burst must
    // not anneal exploration to the floor before learning ever happens.
    action = num_actions_ - 1;
  } else {
    if (rng_.uniform() < epsilon_) {
      action = static_cast<std::size_t>(rng_.uniform_index(num_actions_));
    } else {
      action = greedy_action(state);
    }
    epsilon_ = std::max(cfg_.epsilon_min, epsilon_ * cfg_.epsilon_decay);
  }
  prev_state_ = state;
  prev_action_ = action;
  has_prev_ = true;
  ++decisions_;
  set_desired_step(action);
}

Seconds QdpmGovernor::initialize(Hertz arrival_rate, Hertz service_rate_at_max,
                                 Seconds now) {
  arrival_rate_ = std::max(0.0, arrival_rate.value());
  service_rate_max_ = std::max(0.0, service_rate_at_max.value());
  // Keep the learned table and epsilon across item switches — the point of
  // a learner is to carry experience — but restart the decision chain so
  // the first post-switch reward is not credited to a stale state.
  has_prev_ = false;
  set_desired_step(greedy_action(state_of(0.0)));
  return apply(now);
}

void QdpmGovernor::on_arrival(Seconds now, Seconds interarrival,
                              double buffered_frames) {
  (void)now;
  (void)buffered_frames;
  if (interarrival.value() <= 0.0) return;
  const double sample = 1.0 / interarrival.value();
  arrival_rate_ += cfg_.ema_gain * (sample - arrival_rate_);
}

void QdpmGovernor::on_decode_complete(Seconds now, Seconds decode_time,
                                      MegaHertz during, double buffered_frames,
                                      Seconds frame_delay) {
  (void)now;
  const Seconds normalized = decoder_->normalize_to_max(decode_time, during);
  if (normalized.value() > 0.0) {
    const double sample = 1.0 / normalized.value();
    service_rate_max_ += cfg_.ema_gain * (sample - service_rate_max_);
  }
  const std::size_t state = state_of(buffered_frames);
  if (has_prev_) {
    // Reward the decision that governed this frame: cheap steps are good,
    // delay-target overruns are not.
    double penalty = 0.0;
    if (frame_delay.value() >= 0.0 && target_delay_.value() > 0.0) {
      penalty = cfg_.delay_penalty *
                std::max(0.0, frame_delay.value() / target_delay_.value() - 1.0);
      penalty = std::min(penalty, kMaxPenalty);
    }
    const double reward =
        -badge().cpu().energy_per_cycle_ratio(prev_action_) - penalty;
    double& q = q_[prev_state_ * num_actions_ + prev_action_];
    const double best_next = q_[state * num_actions_ + greedy_action(state)];
    q += cfg_.alpha * (reward + cfg_.gamma * best_next - q);
  }
  decide(state);
}

}  // namespace dvs::policy
