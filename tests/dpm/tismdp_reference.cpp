#include "tismdp_reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.hpp"

namespace dvs::dpm {
namespace {

/// The controllable states, shallow to deep.  Index into value tables.
constexpr std::array<hw::PowerState, 3> kStates = {
    hw::PowerState::Idle, hw::PowerState::Standby, hw::PowerState::Off};

std::size_t state_index(hw::PowerState s) {
  for (std::size_t i = 0; i < kStates.size(); ++i) {
    if (kStates[i] == s) return i;
  }
  throw std::logic_error("TismdpSolver: unexpected state");
}

}  // namespace

SleepPlan TimeIndexedPolicy::to_plan() const {
  SleepPlan plan;
  bool have_standby = false;
  bool have_off = false;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i] == hw::PowerState::Standby && !have_standby && !have_off) {
      plan.steps.push_back({boundaries[i], hw::PowerState::Standby});
      have_standby = true;
    } else if (actions[i] == hw::PowerState::Off && !have_off) {
      plan.steps.push_back({boundaries[i], hw::PowerState::Off});
      have_off = true;
    }
  }
  plan.validate();
  return plan;
}

TismdpSolver::TismdpSolver(DpmCostModel costs, IdleDistributionPtr idle,
                           TismdpSolverConfig cfg)
    : costs_(std::move(costs)), idle_(std::move(idle)), cfg_(cfg) {
  DVS_CHECK_MSG(idle_ != nullptr, "TismdpSolver: null idle distribution");
  DVS_CHECK_MSG(cfg_.bins >= 8, "TismdpSolver: too few bins");
  DVS_CHECK_MSG(cfg_.bin_min.value() > 0.0, "TismdpSolver: bin_min must be > 0");

  Seconds horizon = cfg_.horizon;
  if (horizon.value() <= 0.0) {
    horizon = std::max(Seconds{60.0}, idle_->mean() * 10.0);
  }
  DVS_CHECK_MSG(horizon > cfg_.bin_min, "TismdpSolver: horizon below bin_min");

  // Geometric boundaries from bin_min to horizon, starting at 0.
  bounds_.push_back(Seconds{0.0});
  const double ratio = std::pow(horizon.value() / cfg_.bin_min.value(),
                                1.0 / static_cast<double>(cfg_.bins - 1));
  double b = cfg_.bin_min.value();
  for (std::size_t i = 0; i < cfg_.bins; ++i) {
    bounds_.push_back(Seconds{b});
    b *= ratio;
  }
}

TimeIndexedPolicy TismdpSolver::solve_lagrangian(double lambda) const {
  DVS_CHECK_MSG(lambda >= 0.0, "TismdpSolver: negative Lagrange multiplier");
  const std::size_t n = bounds_.size();  // boundaries b_0 .. b_{n-1}

  // Per-state wakeup penalty charged when the period ends in that state.
  std::array<double, 3> wake_energy{};
  std::array<double, 3> wake_delay{};
  std::array<double, 3> power{};  // mW
  power[0] = costs_.idle_power.value();
  wake_energy[0] = 0.0;
  wake_delay[0] = 0.0;
  for (const auto& opt : costs_.options) {
    const std::size_t i = state_index(opt.state);
    power[i] = opt.power.value();
    wake_energy[i] = opt.wakeup_energy.value();
    wake_delay[i] = opt.wakeup_latency.value();
  }

  // Value function per (boundary, state): expected Lagrangian cost of the
  // remainder of the idle period, conditional on T > boundary, when the
  // device sits in `state` from the boundary on (before the next decision).
  // We also track the un-mixed energy and delay components for reporting.
  struct V {
    double cost = 0.0;
    double energy = 0.0;
    double delay = 0.0;
  };
  std::vector<std::array<V, 3>> value(n);
  std::vector<std::array<std::size_t, 3>> best_action(n);  // chosen state idx

  // Terminal boundary: the device stays in its state until the period ends.
  {
    const Seconds t = bounds_[n - 1];
    const double s_t = idle_->survival(t);
    const double resid =
        s_t > 0.0 ? idle_->mean_excess(t).value() / s_t : 0.0;
    for (std::size_t q = 0; q < 3; ++q) {
      V v;
      v.energy = power[q] * 1e-3 * resid + wake_energy[q];
      v.delay = wake_delay[q];
      v.cost = v.energy + lambda * v.delay;
      value[n - 1][q] = v;
      best_action[n - 1][q] = q;
    }
  }

  // Backward induction.  At boundary i (period still alive), the manager
  // may deepen to any state q' >= q; the device then draws P_q' over the
  // bin, pays the wakeup penalty if the period ends inside the bin, and
  // otherwise continues at boundary i+1 in state q'.
  for (std::size_t i = n - 1; i-- > 0;) {
    const Seconds a = bounds_[i];
    const Seconds b = bounds_[i + 1];
    const double s_a = idle_->survival(a);
    const double s_b = idle_->survival(b);
    const double cond_survive = s_a > 0.0 ? s_b / s_a : 0.0;
    const double end_in_bin = 1.0 - cond_survive;
    // E[min(T,b) - a | T > a] = (excess(a) - excess(b)) / S(a).
    const double resid_bin =
        s_a > 0.0
            ? (idle_->mean_excess(a).value() - idle_->mean_excess(b).value()) / s_a
            : 0.0;

    for (std::size_t q = 0; q < 3; ++q) {
      V best;
      best.cost = std::numeric_limits<double>::infinity();
      std::size_t best_q = q;
      for (std::size_t q2 = q; q2 < 3; ++q2) {
        V v;
        v.energy = power[q2] * 1e-3 * resid_bin +
                   end_in_bin * wake_energy[q2] +
                   cond_survive * value[i + 1][q2].energy;
        v.delay = end_in_bin * wake_delay[q2] +
                  cond_survive * value[i + 1][q2].delay;
        v.cost = v.energy + lambda * v.delay;
        if (v.cost < best.cost) {
          best = v;
          best_q = q2;
        }
      }
      value[i][q] = best;
      best_action[i][q] = best_q;
    }
  }

  // Forward pass: extract the action trajectory starting idle at t=0.
  TimeIndexedPolicy policy;
  policy.boundaries.assign(bounds_.begin(), bounds_.end() - 1);
  policy.actions.resize(policy.boundaries.size());
  std::size_t q = 0;
  for (std::size_t i = 0; i < policy.boundaries.size(); ++i) {
    q = best_action[i][q];
    policy.actions[i] = kStates[q];
  }
  policy.expected_energy = value[0][0].energy;
  policy.expected_delay = value[0][0].delay;
  return policy;
}

TimeIndexedPolicy TismdpSolver::solve_unconstrained() const {
  return solve_lagrangian(0.0);
}

double TismdpSolver::ConstrainedSolution::mixed_energy() const {
  return p_meets_bound * meets_bound.expected_energy +
         (1.0 - p_meets_bound) * cheaper.expected_energy;
}

double TismdpSolver::ConstrainedSolution::mixed_delay() const {
  return p_meets_bound * meets_bound.expected_delay +
         (1.0 - p_meets_bound) * cheaper.expected_delay;
}

TismdpSolver::ConstrainedSolution TismdpSolver::solve(
    Seconds max_expected_delay) const {
  DVS_CHECK_MSG(max_expected_delay.value() >= 0.0,
                "TismdpSolver: negative delay bound");
  ConstrainedSolution out;
  const TimeIndexedPolicy unconstrained = solve_unconstrained();
  if (unconstrained.expected_delay <= max_expected_delay.value() + 1e-12) {
    out.meets_bound = unconstrained;
    out.cheaper = unconstrained;
    out.p_meets_bound = 1.0;
    return out;
  }

  // Bisect the Lagrange multiplier: higher lambda penalizes delay harder.
  double lo = 0.0;                 // delay too high
  double hi = 1.0;                 // find an upper bracket
  TimeIndexedPolicy hi_policy = solve_lagrangian(hi);
  int guard = 0;
  while (hi_policy.expected_delay > max_expected_delay.value() && guard++ < 60) {
    hi *= 4.0;
    hi_policy = solve_lagrangian(hi);
  }
  DVS_CHECK_MSG(hi_policy.expected_delay <= max_expected_delay.value(),
                "TismdpSolver: constraint unattainable");
  TimeIndexedPolicy lo_policy = unconstrained;
  for (std::size_t it = 0; it < cfg_.bisect_iters; ++it) {
    const double mid = 0.5 * (lo + hi);
    TimeIndexedPolicy mid_policy = solve_lagrangian(mid);
    if (mid_policy.expected_delay <= max_expected_delay.value()) {
      hi = mid;
      hi_policy = std::move(mid_policy);
    } else {
      lo = mid;
      lo_policy = std::move(mid_policy);
    }
  }

  out.meets_bound = hi_policy;
  out.cheaper = lo_policy;
  const double d_hi = hi_policy.expected_delay;
  const double d_lo = lo_policy.expected_delay;
  out.p_meets_bound =
      d_lo > d_hi
          ? std::clamp((d_lo - max_expected_delay.value()) / (d_lo - d_hi), 0.0, 1.0)
          : 1.0;
  return out;
}

SolverTismdpPolicy::SolverTismdpPolicy(DpmCostModel costs,
                                       IdleDistributionPtr idle,
                                       Seconds max_expected_delay,
                                       TismdpSolverConfig cfg)
    : solution_(TismdpSolver{std::move(costs), std::move(idle), cfg}
                    .solve(max_expected_delay)),
      plan_meets_(solution_.meets_bound.to_plan()),
      plan_cheaper_(solution_.cheaper.to_plan()) {}

SleepPlan SolverTismdpPolicy::plan(std::optional<Seconds>, Rng& rng) {
  return rng.bernoulli(solution_.p_meets_bound) ? plan_meets_ : plan_cheaper_;
}

}  // namespace dvs::dpm
