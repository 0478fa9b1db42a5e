// Strong unit types used throughout the library.
//
// The paper mixes seconds, milliseconds, MHz, volts, milliwatts and
// kilojoules; keeping each quantity in a distinct C++ type catches the
// classic "passed a rate where a period was expected" mistakes at compile
// time.  Each unit is a thin wrapper over double with arithmetic closed
// over the unit, plus a small set of explicit cross-unit operations
// (power x time = energy, 1/time = rate, ...).
#pragma once

#include <cmath>
#include <compare>
#include <stdexcept>

namespace dvs {

/// Generic tagged quantity.  Tag types are empty structs; all behaviour
/// lives here.  Construction from raw double is explicit; use the
/// factory helpers (seconds(), megahertz(), ...) at call sites.
template <typename Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : value_(v) {}

  [[nodiscard]] constexpr double value() const { return value_; }

  constexpr Quantity operator+(Quantity o) const { return Quantity{value_ + o.value_}; }
  constexpr Quantity operator-(Quantity o) const { return Quantity{value_ - o.value_}; }
  constexpr Quantity operator-() const { return Quantity{-value_}; }
  constexpr Quantity operator*(double s) const { return Quantity{value_ * s}; }
  constexpr Quantity operator/(double s) const { return Quantity{value_ / s}; }
  /// Ratio of two like quantities is dimensionless.
  constexpr double operator/(Quantity o) const { return value_ / o.value_; }

  constexpr Quantity& operator+=(Quantity o) { value_ += o.value_; return *this; }
  constexpr Quantity& operator-=(Quantity o) { value_ -= o.value_; return *this; }
  constexpr Quantity& operator*=(double s) { value_ *= s; return *this; }
  constexpr Quantity& operator/=(double s) { value_ /= s; return *this; }

  constexpr auto operator<=>(const Quantity&) const = default;

 private:
  double value_ = 0.0;
};

template <typename Tag>
constexpr Quantity<Tag> operator*(double s, Quantity<Tag> q) { return q * s; }

namespace tags {
struct SecondsTag {};
struct HertzTag {};        // events per second (frame rates, service rates)
struct MegaHertzTag {};    // CPU clock
struct VoltsTag {};
struct MilliWattsTag {};
struct JoulesTag {};
}  // namespace tags

using Seconds = Quantity<tags::SecondsTag>;
using Hertz = Quantity<tags::HertzTag>;          // "rate": frames/s, requests/s
using MegaHertz = Quantity<tags::MegaHertzTag>;  // CPU frequency
using Volts = Quantity<tags::VoltsTag>;
using MilliWatts = Quantity<tags::MilliWattsTag>;
using Joules = Quantity<tags::JoulesTag>;

// ---- factory helpers -----------------------------------------------------

constexpr Seconds seconds(double v) { return Seconds{v}; }
constexpr Seconds milliseconds(double v) { return Seconds{v * 1e-3}; }
constexpr Seconds microseconds(double v) { return Seconds{v * 1e-6}; }
constexpr Hertz hertz(double v) { return Hertz{v}; }
constexpr Hertz per_second(double v) { return Hertz{v}; }
constexpr MegaHertz megahertz(double v) { return MegaHertz{v}; }
constexpr Volts volts(double v) { return Volts{v}; }
constexpr MilliWatts milliwatts(double v) { return MilliWatts{v}; }
constexpr MilliWatts watts(double v) { return MilliWatts{v * 1e3}; }
constexpr Joules joules(double v) { return Joules{v}; }
constexpr Joules kilojoules(double v) { return Joules{v * 1e3}; }

// ---- cross-unit operations ------------------------------------------------

/// Energy accumulated by drawing power `p` for duration `t`.
constexpr Joules energy(MilliWatts p, Seconds t) {
  return Joules{p.value() * 1e-3 * t.value()};
}

/// Mean period of a rate; throws on non-positive rate.
inline Seconds period(Hertz rate) {
  if (rate.value() <= 0.0) throw std::domain_error("period(): rate must be > 0");
  return Seconds{1.0 / rate.value()};
}

/// Rate corresponding to a mean period; throws on non-positive period.
inline Hertz rate(Seconds t) {
  if (t.value() <= 0.0) throw std::domain_error("rate(): period must be > 0");
  return Hertz{1.0 / t.value()};
}

/// Events completed in a time span at constant rate (dimensionless count).
constexpr double events_in(Hertz r, Seconds t) { return r.value() * t.value(); }

}  // namespace dvs
