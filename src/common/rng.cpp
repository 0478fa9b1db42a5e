#include "common/rng.hpp"

#include <cmath>

namespace dvs {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  // All-zero state is a fixed point of xoshiro; SplitMix64 cannot produce
  // four zero words from any seed, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::domain_error("uniform_index(): n must be > 0");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double rate_per_unit) {
  if (rate_per_unit <= 0.0) {
    throw std::domain_error("exponential(): rate must be > 0");
  }
  // uniform() is in [0,1); 1-u is in (0,1] so the log is finite.
  return -std::log(1.0 - uniform()) / rate_per_unit;
}

double Rng::pareto(double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0) {
    throw std::domain_error("pareto(): shape and scale must be > 0");
  }
  return scale / std::pow(1.0 - uniform(), 1.0 / shape);
}

double Rng::normal() {
  // Box-Muller; u1 in (0,1] to keep the log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double sigma) {
  if (sigma < 0.0) throw std::domain_error("normal(): sigma must be >= 0");
  return mean + sigma * normal();
}

}  // namespace dvs
