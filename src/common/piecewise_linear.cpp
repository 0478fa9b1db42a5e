#include "common/piecewise_linear.hpp"

#include <algorithm>
#include <stdexcept>

namespace dvs {

PiecewiseLinear::PiecewiseLinear(std::vector<Point> knots) : knots_(std::move(knots)) {
  validate();
}

PiecewiseLinear::PiecewiseLinear(std::initializer_list<Point> knots)
    : knots_(knots) {
  validate();
}

void PiecewiseLinear::validate() const {
  if (knots_.size() < 2) {
    throw std::invalid_argument("PiecewiseLinear: need at least two knots");
  }
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (!(knots_[i].first > knots_[i - 1].first)) {
      throw std::invalid_argument("PiecewiseLinear: x must be strictly increasing");
    }
  }
}

double PiecewiseLinear::operator()(double x) const {
  if (knots_.empty()) throw std::logic_error("PiecewiseLinear: empty curve");
  if (x <= knots_.front().first) return knots_.front().second;
  if (x >= knots_.back().first) return knots_.back().second;
  // First knot with knot.x > x.
  const auto it = std::upper_bound(
      knots_.begin(), knots_.end(), x,
      [](double v, const Point& p) { return v < p.first; });
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  const double frac = (x - lo.first) / (hi.first - lo.first);
  return lo.second + frac * (hi.second - lo.second);
}

bool PiecewiseLinear::increasing() const {
  return knots_.back().second >= knots_.front().second;
}

bool PiecewiseLinear::strictly_monotone() const {
  if (knots_.size() < 2) return false;
  const bool inc = knots_[1].second > knots_[0].second;
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    const double dy = knots_[i].second - knots_[i - 1].second;
    if (inc ? dy <= 0.0 : dy >= 0.0) return false;
  }
  return true;
}

}  // namespace dvs
