#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/stats.hpp"

namespace dvs {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng{11};
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_index(7)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, n / 7, n / 7 * 0.1);
  }
  EXPECT_THROW((void)(rng.uniform_index(0)), std::domain_error);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{13};
  RunningStats stats;
  const double rate = 38.3;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.02 / rate);
  // Exponential: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 1.0 / rate, 0.05 / rate);
  EXPECT_THROW((void)(rng.exponential(0.0)), std::domain_error);
}

TEST(Rng, ParetoRespectsScaleAndMean) {
  Rng rng{17};
  RunningStats stats;
  const double shape = 2.5;
  const double scale = 4.0;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.pareto(shape, scale);
    EXPECT_GE(x, scale);
    stats.add(x);
  }
  // E[X] = a*m/(a-1).
  EXPECT_NEAR(stats.mean(), shape * scale / (shape - 1.0), 0.1);
  EXPECT_THROW((void)(rng.pareto(0.0, 1.0)), std::domain_error);
  EXPECT_THROW((void)(rng.pareto(1.0, 0.0)), std::domain_error);
}

TEST(Rng, NormalMoments) {
  Rng rng{19};
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
  EXPECT_THROW((void)(rng.normal(0.0, -1.0)), std::domain_error);
}

TEST(Rng, LognormalUnitMeanConstruction) {
  Rng rng{23};
  RunningStats stats;
  const double sigma = 0.3;
  // exp(N(-s^2/2, s)) has mean 1: the workload's jitter and content noise.
  for (int i = 0; i < 200000; ++i) {
    stats.add(std::exp(rng.normal(-0.5 * sigma * sigma, sigma)));
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{29};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{37};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  shuffle(v, rng);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dvs
