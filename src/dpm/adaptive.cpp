#include "dpm/adaptive.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/fit.hpp"
#include "dpm/solve_cache.hpp"

namespace dvs::dpm {

AdaptiveDpmPolicy::AdaptiveDpmPolicy(DpmCostModel costs, AdaptiveDpmConfig cfg)
    : costs_(std::move(costs)), cfg_(cfg) {
  DVS_CHECK_MSG(cfg_.min_observations >= 5, "AdaptiveDpmPolicy: too few observations");
  DVS_CHECK_MSG(cfg_.refit_every >= 1, "AdaptiveDpmPolicy: bad refit cadence");
  DVS_CHECK_MSG(cfg_.max_history >= cfg_.min_observations,
                "AdaptiveDpmPolicy: history smaller than warmup");
  DVS_CHECK_MSG(cfg_.fallback_off > cfg_.fallback_standby,
                "AdaptiveDpmPolicy: fallback timeouts out of order");
  DVS_CHECK_MSG(cfg_.max_expected_delay.value() >= 0.0,
                "AdaptiveDpmPolicy: negative delay constraint");
  fallback_.steps.push_back({cfg_.fallback_standby, hw::PowerState::Standby});
  fallback_.steps.push_back({cfg_.fallback_off, hw::PowerState::Off});
  fallback_.validate();
}

void AdaptiveDpmPolicy::observe_idle_period(Seconds duration) {
  if (duration.value() <= 0.0) return;  // instant re-request carries no info
  history_.push_back(duration.value());
  if (history_.size() > cfg_.max_history) {
    history_.erase(history_.begin());
  }
  ++since_refit_;
  if (history_.size() >= cfg_.min_observations &&
      (fitted_ == nullptr || since_refit_ >= cfg_.refit_every)) {
    refit();
    since_refit_ = 0;
  }
}

void AdaptiveDpmPolicy::refit() {
  // Fit both families the authors' measurements discriminated between and
  // keep the better CDF fit.  A Pareto fit with shape <= 1 has no finite
  // mean (the plan evaluator needs one), so it only qualifies above a
  // small margin.
  const ExponentialFit expo = fit_exponential(history_);
  const ParetoFit pareto = fit_pareto(history_);
  if (pareto.shape > 1.05 && pareto.avg_cdf_error < expo.avg_cdf_error) {
    fitted_ = std::make_shared<ParetoIdle>(pareto.shape, Seconds{pareto.scale});
  } else {
    fitted_ = std::make_shared<ExponentialIdle>(Seconds{expo.mean});
  }

  // Re-optimize with the same constrained search TismdpPolicy runs, but
  // uncached: a freshly fitted distribution's bits never repeat, so every
  // cache entry would be a miss that lives for the process.
  TismdpMixSolution solved =
      solve_tismdp_mix(costs_, *fitted_, cfg_.max_expected_delay);
  primary_ = std::move(solved.primary);
  secondary_ = std::move(solved.secondary);
  mix_p_ = solved.mix_p;
}

SleepPlan AdaptiveDpmPolicy::plan(std::optional<Seconds>, Rng& rng) {
  if (fitted_ == nullptr) return fallback_;
  return rng.bernoulli(mix_p_) ? primary_ : secondary_;
}

}  // namespace dvs::dpm
