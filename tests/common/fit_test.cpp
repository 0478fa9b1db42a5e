#include "common/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace dvs {
namespace {

TEST(Fit, ExponentialRecoversRate) {
  Rng rng{3};
  std::vector<double> sample;
  const double rate = 32.0;
  sample.reserve(50000);
  for (int i = 0; i < 50000; ++i) sample.push_back(rng.exponential(rate));
  const ExponentialFit fit = fit_exponential(sample);
  EXPECT_NEAR(fit.rate, rate, 0.5);
  EXPECT_NEAR(fit.mean, 1.0 / rate, 5e-4);
  // A true exponential sample fits itself with tiny CDF error.
  EXPECT_LT(fit.avg_cdf_error, 0.01);
  EXPECT_LT(fit.ks_statistic, 0.02);
  EXPECT_EQ(fit.n, 50000u);
}

TEST(Fit, JitteredExponentialHasModerateError) {
  // This mirrors Figure 6: real WLAN interarrivals are nearly exponential
  // but jittered; the paper reports ~8% average fitting error.
  Rng rng{4};
  std::vector<double> sample;
  const double rate = 25.0;
  for (int i = 0; i < 20000; ++i) {
    const double jitter = std::exp(rng.normal(-0.5 * 0.6 * 0.6, 0.6));
    sample.push_back(rng.exponential(rate) * jitter);
  }
  const ExponentialFit fit = fit_exponential(sample);
  EXPECT_GT(fit.avg_cdf_error, 0.01);
  EXPECT_LT(fit.avg_cdf_error, 0.20);
}

TEST(Fit, ExponentialRejectsBadInput) {
  EXPECT_THROW((void)(fit_exponential({})), std::invalid_argument);
  std::vector<double> with_zero{1.0, 0.0};
  EXPECT_THROW((void)(fit_exponential(with_zero)), std::invalid_argument);
  std::vector<double> with_negative{1.0, -2.0};
  EXPECT_THROW((void)(fit_exponential(with_negative)), std::invalid_argument);
}

TEST(Fit, ExponentialCdfShape) {
  EXPECT_DOUBLE_EQ(exponential_cdf(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(exponential_cdf(2.0, -1.0), 0.0);
  EXPECT_NEAR(exponential_cdf(2.0, 0.5), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(exponential_cdf(2.0, 100.0), 1.0, 1e-12);
}

TEST(Fit, ParetoRecoversShape) {
  Rng rng{5};
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) sample.push_back(rng.pareto(1.8, 8.0));
  const ParetoFit fit = fit_pareto(sample);
  EXPECT_NEAR(fit.shape, 1.8, 0.05);
  EXPECT_NEAR(fit.scale, 8.0, 0.05);
  EXPECT_LT(fit.avg_cdf_error, 0.01);
}

TEST(Fit, ParetoCdfShape) {
  EXPECT_DOUBLE_EQ(pareto_cdf(2.0, 1.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(pareto_cdf(2.0, 1.0, 1.0), 0.0);
  EXPECT_NEAR(pareto_cdf(2.0, 1.0, 2.0), 0.75, 1e-12);
}

TEST(Fit, ParetoDegenerateSample) {
  std::vector<double> constant{3.0, 3.0, 3.0, 3.0};
  const ParetoFit fit = fit_pareto(constant);
  EXPECT_DOUBLE_EQ(fit.scale, 3.0);
  EXPECT_GT(fit.shape, 1e6);  // near-step CDF
}

TEST(Fit, EmpiricalCdfIsSortedAndMidpointed) {
  std::vector<double> sample{3.0, 1.0, 2.0, 4.0};
  const EmpiricalCdf e = empirical_cdf(sample);
  ASSERT_EQ(e.xs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(e.xs.begin(), e.xs.end()));
  EXPECT_DOUBLE_EQ(e.ps[0], 0.125);
  EXPECT_DOUBLE_EQ(e.ps[3], 0.875);
}

TEST(Fit, ExponentialBeatsParetoOnExponentialData) {
  Rng rng{6};
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.exponential(10.0));
  EXPECT_LT(fit_exponential(sample).avg_cdf_error,
            fit_pareto(sample).avg_cdf_error);
}

TEST(Fit, ParetoBeatsExponentialOnParetoData) {
  Rng rng{7};
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.pareto(1.8, 5.0));
  EXPECT_LT(fit_pareto(sample).avg_cdf_error,
            fit_exponential(sample).avg_cdf_error);
}

}  // namespace
}  // namespace dvs
