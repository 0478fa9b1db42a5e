// String-keyed governor construction: the registry behind `--policy` and
// the scenario grid's policy axis.
//
// The engine never names a concrete governor type.  It fills a
// GovernorContext — the hardware handle, the decoder model, the delay
// target, optional detector builders, a deterministic seed substream and
// the run's instrumentation probe —
// and asks the factory for a policy by name.  Builtins:
//
//   "paper"  the paper's detector-driven DVS governor (DvsGovernor); falls
//            back to the pinned top-step baseline when the caller supplies
//            no detector builders (the engine's "max" detector axis)
//   "max"    the pinned top-step baseline, always
//   "qdpm"   tabular Q-learning DVS (QdpmGovernor)
//
// Registration is open: tests or future policies call register_policy()
// with their own builder.  Registration is not thread-safe; register
// before spawning sweep workers (the builtins are registered on first
// instance() use).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "detect/detector.hpp"
#include "hw/smartbadge.hpp"
#include "policy/frequency_policy.hpp"
#include "policy/governor_base.hpp"
#include "workload/decoder_model.hpp"

namespace dvs::policy {

/// Everything a governor builder may need, filled by the caller per media
/// context.  Detector builders are thunks so the policy layer never sees
/// the engine's DetectorKind axis; they are null when the caller wants a
/// detector-free baseline (builders must tolerate that).
struct GovernorContext {
  hw::SmartBadge& badge;
  const workload::DecoderModel& decoder;
  Seconds target_delay{0.1};
  double service_cv2 = 1.0;
  /// Build a fresh interarrival-rate / decode-rate detector; either may be
  /// null (no detector axis, e.g. the engine's Max kind).
  std::function<detect::RateDetectorPtr()> make_arrival_detector{};
  std::function<detect::RateDetectorPtr()> make_service_detector{};
  /// Deterministic substream for stochastic policies (Q-DPM exploration).
  std::uint64_t seed = 0;
  /// The run's instrumentation probe; null when the run is uninstrumented.
  obs::Probe* probe = nullptr;

  [[nodiscard]] FrequencyPolicy make_frequency_policy() const {
    return FrequencyPolicy{badge.cpu(),
                           decoder.performance_curve(badge.cpu()),
                           target_delay, service_cv2};
  }
};

class GovernorFactory {
 public:
  using Builder = std::function<GovernorPtr(const GovernorContext&)>;

  struct Entry {
    std::string name;
    std::string description;
  };

  /// The process-wide registry, builtins pre-registered.
  static GovernorFactory& instance();

  /// Registers (or replaces) a named policy.  Not thread-safe; call before
  /// concurrent create() use.
  void register_policy(std::string name, std::string description,
                       Builder builder);

  [[nodiscard]] bool has(std::string_view name) const;

  /// Builds the named policy.  Throws std::invalid_argument for unknown
  /// names, listing the registered ones.
  [[nodiscard]] GovernorPtr create(std::string_view name,
                                   const GovernorContext& ctx) const;

  /// Registered policies in registration order (builtins first) — the
  /// `dvs_sim list policies` listing.
  [[nodiscard]] std::vector<Entry> entries() const;

 private:
  GovernorFactory();

  struct Registration {
    std::string description;
    Builder builder;
  };
  std::vector<std::string> order_;
  std::unordered_map<std::string, Registration> map_;
};

}  // namespace dvs::policy
