// Rate-detector interface.
//
// A detector watches a stream of interval samples — frame interarrival
// times for the arrival-rate detector, decode times normalized to the top
// frequency for the service-rate detector — and maintains an estimate of
// the generating rate.  The four implementations are the four columns of
// Tables 3 and 4: ideal (oracle), change-point (this paper), exponential
// moving average (prior work), and, implicitly, "max" which uses no
// detector at all.
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"

namespace dvs::detect {

/// One evaluation of a detector's decision rule (for change-point: the
/// likelihood test of Section 3.1).  The detector keeps the one its latest
/// sample made, so the caller can report ln P_max and the verdict without
/// the detector knowing about observability.
struct DetectorDecisionInfo {
  double ln_p_max = 0.0;   ///< best test statistic over the candidate set
  double threshold = 0.0;  ///< level it had to clear (incl. scan margin)
  bool detected = false;   ///< verdict
  Hertz rate{0.0};         ///< estimate after the check
};

class RateDetector {
 public:
  virtual ~RateDetector() = default;

  /// Feeds one interval sample observed at absolute time `now` (the sample
  /// is the gap that just ended at `now`).  Returns the updated estimate.
  virtual Hertz on_sample(Seconds now, Seconds interval) = 0;

  /// Current rate estimate without feeding a sample.
  [[nodiscard]] virtual Hertz current_rate() const = 0;

  /// Clears state and seeds the estimate.
  virtual void reset(Hertz initial) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// The decision-rule evaluation the latest on_sample() made, or null
  /// when that sample did not evaluate the rule.  Detectors without an
  /// explicit decision rule (EMA, sliding window) always return null.
  [[nodiscard]] const DetectorDecisionInfo* last_decision() const {
    return decided_ ? &decision_ : nullptr;
  }

 protected:
  /// Implementations with a decision rule clear the record at the start of
  /// every sample (and on reset) and set it when the rule runs.
  void clear_decision() { decided_ = false; }
  void record_decision(const DetectorDecisionInfo& info) {
    decision_ = info;
    decided_ = true;
  }

 private:
  DetectorDecisionInfo decision_;
  bool decided_ = false;
};

using RateDetectorPtr = std::unique_ptr<RateDetector>;

}  // namespace dvs::detect
