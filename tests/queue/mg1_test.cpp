#include "queue/mg1.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "queue/mm1.hpp"

namespace dvs::queue {
namespace {

TEST(Mg1, ReducesToMm1AtCv2One) {
  const Mm1 mm1{hertz(20.0), hertz(30.0)};
  const Mg1 mg1{hertz(20.0), hertz(30.0), 1.0};
  EXPECT_NEAR(mg1.mean_total_delay().value(), mm1.mean_total_delay().value(),
              1e-12);
  EXPECT_NEAR(mg1.mean_waiting_time().value(), mm1.mean_waiting_time().value(),
              1e-12);
  EXPECT_NEAR(Mg1::required_service_rate(hertz(38.3), seconds(0.1), 1.0).value(),
              Mm1::required_service_rate(hertz(38.3), seconds(0.1)).value(),
              1e-9);
}

TEST(Mg1, DeterministicServiceHalvesWaiting) {
  // M/D/1 waits exactly half of M/M/1.
  const Mg1 md1{hertz(20.0), hertz(30.0), 0.0};
  const Mg1 mm1{hertz(20.0), hertz(30.0), 1.0};
  EXPECT_NEAR(md1.mean_waiting_time().value(),
              0.5 * mm1.mean_waiting_time().value(), 1e-12);
}

TEST(Mg1, RequiredServiceRateInvertsDelay) {
  for (double cv2 : {0.0, 0.003, 0.25, 1.0, 2.5}) {
    const Hertz mu = Mg1::required_service_rate(hertz(38.3), seconds(0.1), cv2);
    const Mg1 q{hertz(38.3), mu, cv2};
    EXPECT_NEAR(q.mean_total_delay().value(), 0.1, 1e-9) << "cv2 " << cv2;
    EXPECT_TRUE(q.stable());
  }
}

TEST(Mg1, LowerVariabilityNeedsLessService) {
  const Hertz smooth = Mg1::required_service_rate(hertz(38.3), seconds(0.1), 0.0);
  const Hertz expo = Mg1::required_service_rate(hertz(38.3), seconds(0.1), 1.0);
  const Hertz bursty = Mg1::required_service_rate(hertz(38.3), seconds(0.1), 2.5);
  EXPECT_LT(smooth, expo);
  EXPECT_LT(expo, bursty);
}

TEST(Mg1, InvalidArgsThrow) {
  EXPECT_THROW((void)(Mg1(hertz(0.0), hertz(1.0), 1.0)), std::domain_error);
  EXPECT_THROW((void)(Mg1(hertz(1.0), hertz(1.0), -0.1)), std::domain_error);
  const Mg1 unstable{hertz(2.0), hertz(1.0), 1.0};
  EXPECT_THROW((void)(unstable.mean_total_delay()), std::domain_error);
  EXPECT_THROW(Mg1::required_service_rate(hertz(0.0), seconds(0.1), 1.0),
               std::domain_error);
  EXPECT_THROW(Mg1::required_service_rate(hertz(1.0), seconds(0.0), 1.0),
               std::domain_error);
}

// Property: simulated FIFO queue with lognormal service times of a given
// cv2 matches the P-K delay.
class Mg1SimProperty : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Mg1SimProperty, PollaczekKhinchineMatchesSimulation) {
  const auto [cv2, rho] = GetParam();
  const double lambda = 30.0;
  const double mu = lambda / rho;
  Rng rng{static_cast<std::uint64_t>(cv2 * 1000 + rho * 100)};

  // Lognormal service with mean 1/mu and the requested cv2.
  const double sigma2 = std::log(1.0 + cv2);
  const double mu_log = std::log(1.0 / mu) - 0.5 * sigma2;

  RunningStats delays;
  double t_arrival = 0.0;
  double server_free = 0.0;
  for (int i = 0; i < 600000; ++i) {
    t_arrival += rng.exponential(lambda);
    const double start = std::max(t_arrival, server_free);
    const double service = cv2 == 0.0
                               ? 1.0 / mu
                               : std::exp(rng.normal(mu_log, std::sqrt(sigma2)));
    server_free = start + service;
    delays.add(server_free - t_arrival);
  }

  const Mg1 q{hertz(lambda), hertz(mu), cv2};
  EXPECT_NEAR(delays.mean(), q.mean_total_delay().value(),
              q.mean_total_delay().value() * 0.06)
      << "cv2=" << cv2 << " rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(
    Cv2RhoGrid, Mg1SimProperty,
    ::testing::Values(std::make_tuple(0.0, 0.5), std::make_tuple(0.0, 0.8),
                      std::make_tuple(0.25, 0.6), std::make_tuple(1.0, 0.7),
                      std::make_tuple(2.0, 0.5), std::make_tuple(0.003, 0.75)));

}  // namespace
}  // namespace dvs::queue
