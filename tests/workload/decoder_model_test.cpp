#include "workload/decoder_model.hpp"

#include <gtest/gtest.h>

#include "workload/trace.hpp"

namespace dvs::workload {
namespace {

const hw::Sa1100& cpu() {
  static const hw::Sa1100 instance;
  return instance;
}

TEST(DecoderModel, HitsTargetRateAtMaxFrequency) {
  const DecoderModel mp3 = DecoderModel::mp3(hertz(100.0), cpu().max_frequency());
  EXPECT_NEAR(mp3.mean_decode_rate(cpu().max_frequency()).value(), 100.0, 1e-9);
  const DecoderModel mpeg = DecoderModel::mpeg(hertz(48.0), cpu().max_frequency());
  EXPECT_NEAR(mpeg.mean_decode_rate(cpu().max_frequency()).value(), 48.0, 1e-9);
}

TEST(DecoderModel, WorkScalesDecodeTimeLinearly) {
  const DecoderModel d = DecoderModel::mpeg(hertz(48.0), cpu().max_frequency());
  const MegaHertz f = megahertz(120.0);
  EXPECT_NEAR(d.decode_time(f, 2.0).value(), 2.0 * d.decode_time(f, 1.0).value(),
              1e-12);
  EXPECT_THROW((void)(d.decode_time(f, 0.0)), std::logic_error);
  EXPECT_THROW((void)(d.decode_time(megahertz(0.0), 1.0)), std::logic_error);
}

TEST(DecoderModel, Mp3IsMemoryBoundSubLinear) {
  // Figure 4: halving the frequency costs less than half the performance.
  const DecoderModel mp3 = DecoderModel::mp3(hertz(100.0), cpu().max_frequency());
  const double perf_half = mp3.performance_ratio(cpu().max_frequency() * 0.5);
  EXPECT_GT(perf_half, 0.5 + 0.1);  // clearly sub-linear frequency dependence
  EXPECT_LT(perf_half, 1.0);
}

TEST(DecoderModel, MpegIsNearlyLinear) {
  // Figure 5: performance is almost proportional to frequency.
  const DecoderModel mpeg = DecoderModel::mpeg(hertz(48.0), cpu().max_frequency());
  const double perf_half = mpeg.performance_ratio(cpu().max_frequency() * 0.5);
  EXPECT_NEAR(perf_half, 0.5, 0.06);
}

TEST(DecoderModel, PerformanceRatioIsOneAtMax) {
  const DecoderModel d = DecoderModel::mp3(hertz(90.0), cpu().max_frequency());
  EXPECT_DOUBLE_EQ(d.performance_ratio(cpu().max_frequency()), 1.0);
  // And strictly less below.
  EXPECT_LT(d.performance_ratio(megahertz(100.0)), 1.0);
}

TEST(DecoderModel, PerformanceCurveIsMonotoneOverSteps) {
  for (const DecoderModel& d :
       {DecoderModel::mp3(hertz(100.0), cpu().max_frequency()),
        DecoderModel::mpeg(hertz(48.0), cpu().max_frequency())}) {
    const PiecewiseLinear curve = d.performance_curve(cpu());
    EXPECT_EQ(curve.size(), cpu().num_steps());
    EXPECT_TRUE(curve.strictly_monotone());
    EXPECT_TRUE(curve.increasing());
    EXPECT_NEAR(curve(cpu().max_frequency().value()), 1.0, 1e-12);
  }
}

TEST(DecoderModel, NormalizeToMaxInvertsFrequencyScaling) {
  const DecoderModel d = DecoderModel::mp3(hertz(100.0), cpu().max_frequency());
  const MegaHertz f = megahertz(88.5);
  const Seconds observed = d.decode_time(f, 1.3);
  const Seconds at_max = d.decode_time(cpu().max_frequency(), 1.3);
  EXPECT_NEAR(d.normalize_to_max(observed, f).value(), at_max.value(), 1e-12);
}

TEST(DecoderModel, InvalidConstruction) {
  EXPECT_THROW(DecoderModel("x", MediaType::Mp3Audio, hertz(0.0), 0.1,
                            megahertz(221.25)),
               std::logic_error);
  EXPECT_THROW(DecoderModel("x", MediaType::Mp3Audio, hertz(10.0), 1.0,
                            megahertz(221.25)),
               std::logic_error);
  EXPECT_THROW(DecoderModel("x", MediaType::Mp3Audio, hertz(10.0), -0.1,
                            megahertz(221.25)),
               std::logic_error);
}

TEST(DecoderModel, ReferenceDecodersMatchConstants) {
  const DecoderModel mp3 = reference_mp3_decoder(cpu().max_frequency());
  EXPECT_EQ(mp3.type(), MediaType::Mp3Audio);
  EXPECT_NEAR(mp3.mean_decode_rate(cpu().max_frequency()).value(),
              kMp3ReferenceRate, 1e-9);
  const DecoderModel mpeg = reference_mpeg_decoder(cpu().max_frequency());
  EXPECT_EQ(mpeg.type(), MediaType::MpegVideo);
  EXPECT_NEAR(mpeg.mean_decode_rate(cpu().max_frequency()).value(),
              kMpegReferenceRate, 1e-9);
}

}  // namespace
}  // namespace dvs::workload
