#include "dpm/idle_model.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/memo.hpp"

namespace dvs::dpm {

namespace {

// Cache keys embed parameter bit patterns, not decimal renderings, so two
// distributions share solves only when they are numerically identical.
std::string param_bits(const char* tag, double a, double b) {
  std::string key = tag;
  key += ':';
  append_key_double(key, a);
  append_key_double(key, b);
  return key;
}

}  // namespace

// ---- ExponentialIdle --------------------------------------------------------

ExponentialIdle::ExponentialIdle(Seconds mean) : rate_(1.0 / mean.value()) {
  DVS_CHECK_MSG(mean.value() > 0.0, "ExponentialIdle: mean must be > 0");
}

double ExponentialIdle::survival(Seconds t) const {
  if (t.value() <= 0.0) return 1.0;
  return std::exp(-rate_ * t.value());
}

Seconds ExponentialIdle::mean_excess(Seconds t) const {
  // Memoryless: E[(T-t)^+] = S(t) * mean.
  return Seconds{survival(t) / rate_};
}

Seconds ExponentialIdle::mean_truncated(Seconds t) const {
  if (t.value() <= 0.0) return Seconds{0.0};
  return Seconds{(1.0 - std::exp(-rate_ * t.value())) / rate_};
}

Seconds ExponentialIdle::sample(Rng& rng) const {
  return Seconds{rng.exponential(rate_)};
}

std::string ExponentialIdle::cache_key() const {
  return param_bits("exp", rate_, 0.0);
}

// ---- ParetoIdle -------------------------------------------------------------

ParetoIdle::ParetoIdle(double shape, Seconds scale) : shape_(shape), scale_(scale) {
  DVS_CHECK_MSG(shape > 1.0, "ParetoIdle: shape must be > 1 for a finite mean");
  DVS_CHECK_MSG(scale.value() > 0.0, "ParetoIdle: scale must be > 0");
}

double ParetoIdle::survival(Seconds t) const {
  if (t.value() <= scale_.value()) return 1.0;
  return std::pow(scale_.value() / t.value(), shape_);
}

Seconds ParetoIdle::mean() const {
  return Seconds{shape_ * scale_.value() / (shape_ - 1.0)};
}

Seconds ParetoIdle::mean_excess(Seconds t) const {
  // E[(T-t)^+] = integral_t^inf S(u) du.
  const double m = scale_.value();
  const double a = shape_;
  if (t.value() <= m) {
    // Full region below the scale plus the tail from the scale.
    return Seconds{(m - t.value()) + m / (a - 1.0)};
  }
  // integral_t^inf (m/u)^a du = t * S(t) / (a - 1).
  return Seconds{t.value() * survival(t) / (a - 1.0)};
}

Seconds ParetoIdle::mean_truncated(Seconds t) const {
  if (t.value() <= 0.0) return Seconds{0.0};
  // E[min(T,t)] = E[T] - E[(T-t)^+].
  return mean() - mean_excess(t);
}

Seconds ParetoIdle::sample(Rng& rng) const {
  return Seconds{rng.pareto(shape_, scale_.value())};
}

std::string ParetoIdle::cache_key() const {
  return param_bits("pareto", shape_, scale_.value());
}

}  // namespace dvs::dpm
