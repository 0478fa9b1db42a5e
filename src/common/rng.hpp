// Deterministic random number generation.
//
// Every stochastic component in the library (arrival processes, decoder
// models, Monte-Carlo threshold characterization) draws from an explicit
// Rng instance seeded by the caller, so experiments are reproducible
// bit-for-bit across runs and platforms.  The generator is xoshiro256**,
// seeded through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dvs {

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Not std::mt19937 because we want identical sequences across standard
/// library implementations, and not std::*_distribution for the same
/// reason: the distribution algorithms here are fixed by this library.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.  Inline with uniform(): trace generation and
  /// the threshold characterization draw millions per process.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <algorithm> shuffles).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).  53-bit resolution.
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  Throws if n == 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Exponential variate with the given rate (mean 1/rate).
  /// This is the paper's model for interarrival and service times.
  double exponential(double rate_per_unit);

  /// Pareto variate with shape a > 0 and scale (minimum) m > 0.
  /// Heavy-tailed idle periods — the distribution the authors' DPM work
  /// found to model real idle-time tails, unlike the exponential.
  double pareto(double shape, double scale);

  /// Standard normal via Box-Muller (no state caching; two uniforms per call).
  double normal();

  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Deterministic 64-bit seed mixer (SplitMix64 finalizer over a golden-ratio
/// combination of a and b): the cross-layer substream discipline.  Layers
/// derive independent streams as mix_seed(parent_seed, stream_id) — the
/// scenario grid (core/scenario.hpp) and stochastic policies
/// (policy/qdpm_governor.hpp) both use this exact function, so sweeps stay
/// bit-identical across platforms and job counts.
inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Fisher-Yates shuffle with the library Rng (deterministic given the seed).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  if (v.empty()) return;
  for (std::size_t i = v.size() - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_index(i + 1));
    using std::swap;
    swap(v[i], v[j]);
  }
}

}  // namespace dvs
