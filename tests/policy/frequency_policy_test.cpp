#include "policy/frequency_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "hw/cpu_catalog.hpp"
#include "queue/mg1.hpp"
#include "queue/mm1.hpp"
#include "workload/trace.hpp"

namespace dvs::policy {
namespace {

const hw::Sa1100& cpu() {
  static const hw::Sa1100 instance;
  return instance;
}

FrequencyPolicy mp3_policy(Seconds delay = seconds(0.1)) {
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  return FrequencyPolicy{cpu(), dec.performance_curve(cpu()), delay};
}

FrequencyPolicy mpeg_policy(Seconds delay = seconds(0.1)) {
  const auto dec = workload::reference_mpeg_decoder(cpu().max_frequency());
  return FrequencyPolicy{cpu(), dec.performance_curve(cpu()), delay};
}

TEST(FrequencyPolicy, ChosenStepMeetsDelayTargetAndIsMinimal) {
  const FrequencyPolicy p = mp3_policy();
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  const Hertz lambda_u = hertz(38.3);
  const Hertz service_at_max = hertz(100.0);
  const std::size_t step = p.select_step(lambda_u, service_at_max);

  const Hertz required = queue::Mm1::required_service_rate(lambda_u, seconds(0.1));
  // Chosen step achieves at least the required decode rate...
  EXPECT_GE(p.decode_rate_at(step, service_at_max).value(), required.value() - 1e-9);
  // ...and the step below it (if any) does not.
  if (step > 0) {
    EXPECT_LT(p.decode_rate_at(step - 1, service_at_max).value(), required.value());
  }
  (void)dec;
}

TEST(FrequencyPolicy, LightLoadPicksLowStep) {
  const FrequencyPolicy p = mp3_policy();
  // 14 fr/s arrivals, fast decoder: required ~24 fr/s vs 100 at max.
  const std::size_t step = p.select_step(hertz(14.0), hertz(100.0));
  EXPECT_LT(step, 4u);
}

TEST(FrequencyPolicy, SaturationPinsTopStep) {
  const FrequencyPolicy p = mpeg_policy();
  // Arrivals exceed what even the top step can do: run flat out.
  EXPECT_EQ(p.select_step(hertz(60.0), hertz(48.0)), cpu().num_steps() - 1);
  // Required ratio exactly 1 also pins the top step.
  EXPECT_EQ(p.select_step(hertz(38.0), hertz(48.0)), cpu().num_steps() - 1);
}

TEST(FrequencyPolicy, DegenerateEstimatesDefaultToTop) {
  const FrequencyPolicy p = mp3_policy();
  EXPECT_EQ(p.select_step(hertz(0.0), hertz(100.0)), cpu().num_steps() - 1);
  EXPECT_EQ(p.select_step(hertz(30.0), hertz(0.0)), cpu().num_steps() - 1);
}

TEST(FrequencyPolicy, TighterDelayNeedsHigherStep) {
  const FrequencyPolicy loose = mp3_policy(seconds(0.5));
  const FrequencyPolicy tight = mp3_policy(seconds(0.02));
  const Hertz lu = hertz(38.3);
  const Hertz sr = hertz(100.0);
  EXPECT_LE(loose.select_step(lu, sr), tight.select_step(lu, sr));
  EXPECT_GT(tight.select_step(lu, sr), 0u);
}

TEST(FrequencyPolicy, StepIsMonotoneInArrivalRate) {
  const FrequencyPolicy p = mpeg_policy();
  std::size_t prev = 0;
  for (double lu = 9.0; lu <= 32.0; lu += 1.0) {
    const std::size_t s = p.select_step(hertz(lu), hertz(48.0));
    EXPECT_GE(s, prev) << "arrival " << lu;
    prev = s;
  }
}

TEST(FrequencyPolicy, SustainableArrivalInvertsSelection) {
  const FrequencyPolicy p = mpeg_policy();
  const Hertz sr = hertz(48.0);
  for (std::size_t s = 0; s < cpu().num_steps(); ++s) {
    const Hertz lu = p.sustainable_arrival_rate_at(s, sr);
    if (lu.value() <= 0.0) continue;  // step too slow for any arrival rate
    // Feeding back the sustainable arrival rate must select a step <= s.
    EXPECT_LE(p.select_step(lu, sr), s) << "step " << s;
  }
}

TEST(FrequencyPolicy, DecodeRateScalesWithServiceEstimate) {
  const FrequencyPolicy p = mpeg_policy();
  const std::size_t s = 5;
  EXPECT_NEAR(p.decode_rate_at(s, hertz(96.0)).value(),
              2.0 * p.decode_rate_at(s, hertz(48.0)).value(), 1e-9);
  EXPECT_THROW((void)(p.decode_rate_at(s, hertz(0.0))), std::logic_error);
}

TEST(FrequencyPolicy, QueueFeedbackRaisesStep) {
  const FrequencyPolicy p = mp3_policy();
  const Hertz lu = hertz(20.0);
  const Hertz sr = hertz(100.0);
  const std::size_t base = p.select_step(lu, sr);
  // Backlog at/below the steady-state occupancy changes nothing.
  EXPECT_EQ(p.select_step(lu, sr, 2.0), base);
  // Large backlog demands drain capacity: strictly higher step.
  const std::size_t loaded = p.select_step(lu, sr, 40.0);
  EXPECT_GT(loaded, base);
  // And it is monotone in the backlog.
  std::size_t prev = base;
  for (double q = 0.0; q <= 60.0; q += 5.0) {
    const std::size_t s = p.select_step(lu, sr, q);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

/// Reference select_step: the same arithmetic, but the performance curve is
/// evaluated at every step on every decision instead of read from a table.
std::size_t curve_scan_select_step(const FrequencyPolicy& p, Hertz arrival_rate,
                                   Hertz service_rate_at_max,
                                   double buffered_frames) {
  const hw::Sa1100& c = p.cpu();
  const std::size_t top = c.num_steps() - 1;
  if (arrival_rate.value() <= 0.0 || service_rate_at_max.value() <= 0.0) return top;
  const Seconds d = p.target_delay();
  Hertz required =
      p.service_cv2() == 1.0
          ? queue::Mm1::required_service_rate(arrival_rate, d)
          : queue::Mg1::required_service_rate(arrival_rate, d, p.service_cv2());
  const double steady_occupancy = arrival_rate.value() * d.value() + 1.0;
  const double excess = buffered_frames - steady_occupancy;
  if (excess > 0.0) required += Hertz{excess / (10.0 * d.value())};
  const double required_ratio = required.value() / service_rate_at_max.value();
  if (required_ratio >= 1.0) return top;
  for (std::size_t s = 0; s <= top; ++s) {
    const double perf = p.performance_curve()(c.frequency_at(s).value());
    if (perf >= required_ratio * (1.0 - 1e-9)) return s;
  }
  return top;
}

TEST(FrequencyPolicy, SelectStepMatchesCurveScan) {
  const std::vector<hw::Sa1100> cpus{hw::Sa1100{}, hw::crusoe_like(),
                                     hw::frequency_only_sa1100()};
  Rng rng{0xf00dULL};
  std::size_t draws = 0;
  for (const hw::Sa1100& c : cpus) {
    for (const bool mpeg : {false, true}) {
      const auto dec = mpeg ? workload::reference_mpeg_decoder(c.max_frequency())
                            : workload::reference_mp3_decoder(c.max_frequency());
      for (const double cv2 : {1.0, 0.003}) {
        const FrequencyPolicy p{c, dec.performance_curve(c), seconds(0.1), cv2};
        for (int i = 0; i < 2000; ++i, ++draws) {
          // Mostly ordinary rates and backlogs, with zero, negative and
          // saturating estimates mixed in.
          double lambda = rng.uniform(0.0, 120.0);
          double mu = rng.uniform(1.0, 150.0);
          double queued = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 60.0);
          const double kind = rng.uniform();
          if (kind < 0.05) {
            lambda = 0.0;
          } else if (kind < 0.10) {
            lambda = -rng.uniform(0.0, 50.0);
          } else if (kind < 0.15) {
            mu = 0.0;
          } else if (kind < 0.20) {
            mu = -rng.uniform(0.0, 50.0);
          } else if (kind < 0.30) {
            mu = rng.uniform(0.1, 1.0) * lambda;  // saturating
          } else if (kind < 0.60) {
            // Aim the epsilon-scaled required ratio at a step's performance
            // to within a few ulps, where a table entry off by one ulp
            // would flip the chosen step.
            const std::size_t s = rng.uniform_index(c.num_steps());
            const double perf = p.performance_curve()(c.frequency_at(s).value());
            const Hertz required =
                cv2 == 1.0 ? queue::Mm1::required_service_rate(hertz(lambda), seconds(0.1))
                           : queue::Mg1::required_service_rate(hertz(lambda),
                                                               seconds(0.1), cv2);
            mu = required.value() * (1.0 - 1e-9) / perf;
            const double toward = rng.bernoulli(0.5) ? 0.0 : 2.0 * mu;
            for (auto ulps = rng.uniform_index(5); ulps > 0; --ulps) {
              mu = std::nextafter(mu, toward);
            }
            queued = 0.0;
          }
          EXPECT_EQ(p.select_step(hertz(lambda), hertz(mu), queued),
                    curve_scan_select_step(p, hertz(lambda), hertz(mu), queued))
              << "lambda " << lambda << " mu " << mu << " queued " << queued;
        }
        for (std::size_t s = 0; s < c.num_steps(); ++s) {
          const double perf = p.performance_curve()(c.frequency_at(s).value());
          for (const double mu : {1.0, 48.0, 100.0, 137.25}) {
            EXPECT_EQ(p.decode_rate_at(s, hertz(mu)).value(), perf * mu) << "step " << s;
          }
        }
        EXPECT_THROW((void)(p.decode_rate_at(c.num_steps(), hertz(48.0))),
                     std::logic_error);
      }
    }
  }
  EXPECT_GE(draws, 10000u);
}

TEST(FrequencyPolicy, RejectsBadConstruction) {
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  EXPECT_THROW(
      FrequencyPolicy(cpu(), dec.performance_curve(cpu()), seconds(0.0)),
      std::logic_error);
  // Non-monotone curve rejected.
  EXPECT_THROW(FrequencyPolicy(cpu(),
                               PiecewiseLinear{{59.0, 0.5}, {100.0, 0.4}, {221.25, 1.0}},
                               seconds(0.1)),
               std::logic_error);
}

}  // namespace
}  // namespace dvs::policy
