// Monotone piecewise-linear curves.
//
// The paper's frequency-setting policy uses "piece-wise linear approximation
// based on the application frequency-performance tradeoff curve (Figures 4
// and 5)" to map a required decoding rate back to a processor frequency, and
// the V(f) curve of Figure 3 to set the voltage.  This class provides the
// forward evaluation; the policy inverts its strictly increasing curve by
// searching the frequency steps.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

namespace dvs {

/// Piecewise-linear interpolant over sorted (x, y) knots.
///
/// Out-of-range queries clamp to the end values (the hardware cannot run
/// below its lowest or above its highest frequency, so clamping matches the
/// physical behaviour the policy needs).
class PiecewiseLinear {
 public:
  using Point = std::pair<double, double>;

  PiecewiseLinear() = default;

  /// Knots must be sorted by strictly increasing x; throws otherwise or if
  /// fewer than two knots are given.
  explicit PiecewiseLinear(std::vector<Point> knots);
  PiecewiseLinear(std::initializer_list<Point> knots);

  /// Linear interpolation at x (clamped to [x_front, x_back]).
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] bool increasing() const;
  [[nodiscard]] bool strictly_monotone() const;

  [[nodiscard]] std::size_t size() const { return knots_.size(); }
  [[nodiscard]] const std::vector<Point>& knots() const { return knots_; }
  [[nodiscard]] double x_min() const { return knots_.front().first; }
  [[nodiscard]] double x_max() const { return knots_.back().first; }
  [[nodiscard]] double y_at_x_min() const { return knots_.front().second; }
  [[nodiscard]] double y_at_x_max() const { return knots_.back().second; }

 private:
  void validate() const;

  std::vector<Point> knots_;
};

}  // namespace dvs
