// On-line change-point detection (Section 3.1, Equations 3-4).
//
// The detector keeps a sliding window of the last m interval samples.
// Every `check_interval` samples it evaluates, for each candidate new rate
// lambda_n in a geometric rate set, the maximum-likelihood ratio
//
//   ln P_max = max_k [ (m-k) ln(lambda_n/lambda_o)
//                      - (lambda_n - lambda_o) sum_{j>k} x_j ]
//
// against the threshold characterized off-line for that rate ratio
// (ThresholdTable, whose precomputed scan rows carry ln r and the threshold
// of every grid ratio, so a check takes no logarithm and no interpolation).
// When the threshold is exceeded there is >= 99.5% likelihood the rate
// changed: the estimate moves to the maximum-likelihood rate of the
// post-change tail, and the pre-change samples are discarded.
//
// "Only the sum of interarrival (or decoding) times needs to be updated
// upon every arrival" — the suffix-sum evaluation in
// max_log_likelihood_ratio is exactly that computation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "detect/detector.hpp"
#include "detect/threshold_table.hpp"

namespace dvs::detect {

class ChangePointDetector final : public RateDetector {
 public:
  /// `thresholds` may be shared across detectors with identical config.
  explicit ChangePointDetector(std::shared_ptr<const ThresholdTable> thresholds);

  /// Convenience: builds (and owns) a threshold table for `cfg`.
  explicit ChangePointDetector(const ChangePointConfig& cfg);

  Hertz on_sample(Seconds now, Seconds interval) override;
  [[nodiscard]] Hertz current_rate() const override { return rate_; }
  void reset(Hertz initial) override;
  [[nodiscard]] std::string name() const override { return "change-point"; }

  [[nodiscard]] const ChangePointConfig& config() const {
    return thresholds_->config();
  }

  /// Number of change points declared since construction/reset.
  [[nodiscard]] std::uint64_t changes_detected() const { return changes_; }

  /// Times (sample timestamps) at which changes were declared.
  [[nodiscard]] const std::vector<Seconds>& change_times() const {
    return change_times_;
  }

 private:
  /// Fixed-capacity ring over the last m raw interval samples: push is
  /// allocation-free, dropping the pre-change prefix is O(1), and the
  /// element type stays contiguous enough for the scan below.
  class Window {
   public:
    explicit Window(std::size_t capacity)
        : buf_(capacity > 0 ? capacity : 1) {}

    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
    [[nodiscard]] double at(std::size_t i) const { return buf_[wrap(head_ + i)]; }

    /// Appends, evicting the oldest sample when full.
    void push(double x) {
      if (count_ < buf_.size()) {
        buf_[wrap(head_ + count_)] = x;
        ++count_;
      } else {
        buf_[head_] = x;
        head_ = wrap(head_ + 1);
      }
    }

    /// Drops the first `k` samples (k <= size()).
    void drop_front(std::size_t k) {
      head_ = wrap(head_ + k);
      count_ -= k;
    }

    void clear() {
      head_ = 0;
      count_ = 0;
    }

   private:
    [[nodiscard]] std::size_t wrap(std::size_t i) const {
      return i >= buf_.size() ? i - buf_.size() : i;
    }
    std::vector<double> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  /// Runs the likelihood test over the current window; returns true and
  /// updates rate_ when a change is declared.
  bool detect(Seconds now);

  std::shared_ptr<const ThresholdTable> thresholds_;
  Window window_;                     ///< last m raw interval samples
  std::size_t samples_since_check_ = 0;
  // Scratch reused across detect() calls (no steady-state allocation):
  // normalized suffix sums, tail lengths, and window positions of the
  // candidate change points, in scan (descending-position) order.
  std::vector<double> cand_sum_;
  std::vector<std::size_t> cand_len_;
  std::vector<std::size_t> cand_pos_;
  /// Post-change samples seen so far; the estimate refines while this is
  /// below the window size and freezes afterwards (piecewise-constant
  /// output between change points).
  std::size_t settling_ = 0;
  /// Left-fold sum of the window while it settles (bit-identical to
  /// re-summing it front to back each sample).
  double settle_sum_ = 0.0;
  Hertz rate_{0.0};
  bool warmed_up_ = false;
  std::uint64_t changes_ = 0;
  std::vector<Seconds> change_times_;
};

}  // namespace dvs::detect
