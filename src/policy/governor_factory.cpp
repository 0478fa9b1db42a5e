#include "policy/governor_factory.hpp"

#include <stdexcept>
#include <utility>

#include "policy/governor.hpp"
#include "policy/qdpm_governor.hpp"

namespace dvs::policy {

namespace {

GovernorPtr build_paper(const GovernorContext& ctx) {
  if (!ctx.make_arrival_detector || !ctx.make_service_detector) {
    // No detector axis: degenerate to the pinned baseline, matching the
    // engine's historical behavior for the Max detector kind.
    return DvsGovernor::max_performance(ctx.badge, ctx.decoder,
                                        ctx.make_frequency_policy(), ctx.probe);
  }
  // Build in declaration order — deterministic even if a detector factory
  // ever consumes shared state.
  detect::RateDetectorPtr arrival = ctx.make_arrival_detector();
  detect::RateDetectorPtr service = ctx.make_service_detector();
  if (!arrival || !service) {
    return DvsGovernor::max_performance(ctx.badge, ctx.decoder,
                                        ctx.make_frequency_policy(), ctx.probe);
  }
  return std::make_unique<DvsGovernor>(
      ctx.badge, ctx.decoder, ctx.make_frequency_policy(), std::move(arrival),
      std::move(service), ctx.probe);
}

GovernorPtr build_max(const GovernorContext& ctx) {
  return DvsGovernor::max_performance(ctx.badge, ctx.decoder,
                                      ctx.make_frequency_policy(), ctx.probe);
}

GovernorPtr build_qdpm(const GovernorContext& ctx) {
  return std::make_unique<QdpmGovernor>(ctx.badge, ctx.decoder,
                                        ctx.target_delay, ctx.seed, ctx.probe);
}

}  // namespace

GovernorFactory::GovernorFactory() {
  register_policy("paper",
                  "the paper's detector-driven DVS governor (M/M/1 or M/G/1"
                  " delay inversion, Eq. 5)",
                  build_paper);
  register_policy("max",
                  "pin the CPU at the top frequency step (no DVS baseline)",
                  build_max);
  register_policy("qdpm",
                  "tabular Q-learning DVS: load/queue state, per-step"
                  " actions, energy-delay reward (Q-DPM lineage)",
                  build_qdpm);
}

GovernorFactory& GovernorFactory::instance() {
  static GovernorFactory factory;
  return factory;
}

void GovernorFactory::register_policy(std::string name, std::string description,
                                      Builder builder) {
  auto [it, inserted] = map_.insert_or_assign(
      name, Registration{std::move(description), std::move(builder)});
  if (inserted) order_.push_back(std::move(name));
}

bool GovernorFactory::has(std::string_view name) const {
  return map_.find(std::string(name)) != map_.end();
}

GovernorPtr GovernorFactory::create(std::string_view name,
                                    const GovernorContext& ctx) const {
  const auto it = map_.find(std::string(name));
  if (it == map_.end()) {
    std::string known;
    for (const std::string& n : order_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("GovernorFactory: unknown policy '" +
                                std::string(name) + "' (registered: " + known +
                                ")");
  }
  return it->second.builder(ctx);
}

std::vector<GovernorFactory::Entry> GovernorFactory::entries() const {
  std::vector<Entry> out;
  out.reserve(order_.size());
  for (const std::string& n : order_) {
    out.push_back(Entry{n, map_.at(n).description});
  }
  return out;
}

}  // namespace dvs::policy
