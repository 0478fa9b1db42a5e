// Parameterized sweep: the engine's hard invariants must hold for every
// combination of detector and DPM policy on both media types.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

#include "core/experiment.hpp"
#include "dpm/adaptive.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"

namespace dvs::core {
namespace {

const hw::Sa1100& cpu() {
  static const hw::Sa1100 instance;
  return instance;
}

DetectorFactoryConfig& shared_detectors() {
  static DetectorFactoryConfig cfg = [] {
    DetectorFactoryConfig c;
    c.change_point.mc_windows = 1000;
    c.prepare();
    return c;
  }();
  return cfg;
}

enum class DpmChoice { None, Timeout, Renewal, Tismdp, Oracle, Adaptive };

const char* to_string(DpmChoice c) {
  switch (c) {
    case DpmChoice::None: return "none";
    case DpmChoice::Timeout: return "timeout";
    case DpmChoice::Renewal: return "renewal";
    case DpmChoice::Tismdp: return "tismdp";
    case DpmChoice::Oracle: return "oracle";
    case DpmChoice::Adaptive: return "adaptive";
  }
  return "?";
}

dpm::DpmPolicyPtr make_policy(DpmChoice c) {
  hw::SmartBadge badge;
  const dpm::DpmCostModel costs = dpm::smartbadge_cost_model(badge);
  const auto idle = std::make_shared<dpm::ParetoIdle>(1.8, seconds(20.0));
  switch (c) {
    case DpmChoice::None: return nullptr;
    case DpmChoice::Timeout:
      return std::make_shared<dpm::FixedTimeoutPolicy>(seconds(2.0), seconds(30.0));
    case DpmChoice::Renewal: return std::make_shared<dpm::RenewalPolicy>(costs, idle);
    case DpmChoice::Tismdp:
      return std::make_shared<dpm::TismdpPolicy>(costs, idle, seconds(0.5));
    case DpmChoice::Oracle: return std::make_shared<dpm::OraclePolicy>(costs);
    case DpmChoice::Adaptive:
      return std::make_shared<dpm::AdaptiveDpmPolicy>(costs);
  }
  return nullptr;
}

using GridParam = std::tuple<DetectorKind, DpmChoice, workload::MediaType>;

class EngineGrid : public ::testing::TestWithParam<GridParam> {};

/// Instance name, e.g. ChangePoint_Tismdp_Mp3.
std::string grid_name(const ::testing::TestParamInfo<GridParam>& info) {
  const auto [detector, dpm_choice, media] = info.param;
  std::string name;
  for (const char c : to_string(detector)) {
    if (std::isalnum(static_cast<unsigned char>(c))) name += c;
  }
  std::string dpm = to_string(dpm_choice);
  dpm[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(dpm[0])));
  return name + "_" + dpm + "_" +
         (media == workload::MediaType::Mp3Audio ? "Mp3" : "Mpeg");
}

TEST_P(EngineGrid, InvariantsHold) {
  const auto [detector, dpm_choice, media] = GetParam();

  // Two short items with a real idle gap so DPM policies get exercised.
  std::vector<PlaybackItem> items;
  if (media == workload::MediaType::Mp3Audio) {
    const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
    Rng rng{21};
    auto t1 = workload::build_mp3_trace(workload::mp3_sequence("A"), dec, rng);
    auto t2 = workload::build_mp3_trace(workload::mp3_sequence("E"), dec, rng)
                  .shifted(seconds(180.0));
    items.push_back({t1, dec, default_nominal_arrival(media),
                     default_nominal_service(media), seconds(100.0)});
    items.push_back({t2, dec, default_nominal_arrival(media),
                     default_nominal_service(media), seconds(288.0)});
  } else {
    const auto dec = workload::reference_mpeg_decoder(cpu().max_frequency());
    Rng rng{22};
    workload::MpegClip clip = workload::football_clip();
    clip.duration = seconds(60.0);
    auto t1 = workload::build_mpeg_trace(clip, dec, rng);
    auto t2 = workload::build_mpeg_trace(clip, dec, rng).shifted(seconds(140.0));
    items.push_back({t1, dec, default_nominal_arrival(media),
                     default_nominal_service(media), seconds(60.0)});
    items.push_back({t2, dec, default_nominal_arrival(media),
                     default_nominal_service(media), seconds(200.0)});
  }
  const std::uint64_t total_frames =
      items[0].trace.size() + items[1].trace.size();

  RunOptions opts;
  opts.detector = detector;
  opts.detector_cfg = &shared_detectors();
  opts.dpm_policy = make_policy(dpm_choice);
  const Metrics m = run_items(items, opts);

  SCOPED_TRACE(std::string(core::to_string(detector)) + " + " +
               to_string(dpm_choice));

  // Conservation: every frame arrives exactly once and is decoded.
  EXPECT_EQ(m.frames_arrived, total_frames);
  EXPECT_EQ(m.frames_decoded, total_frames);
  EXPECT_EQ(m.frames_dropped, 0u);

  // Energy sanity: positive, additive, bounded by all-active power.
  EXPECT_GT(m.total_energy.value(), 0.0);
  Joules sum{0.0};
  for (const auto& e : m.component_energy) {
    EXPECT_GE(e.value(), 0.0);
    sum += e;
  }
  EXPECT_NEAR(m.total_energy.value(), sum.value(), 1e-6);
  EXPECT_LT(m.average_power.value(),
            hw::smartbadge_total_power(hw::PowerState::Active).value());

  // Delay sanity: positive and not absurd.
  EXPECT_GT(m.mean_frame_delay.value(), 0.0);
  EXPECT_LT(m.mean_frame_delay.value(), 2.0);

  // Frequency sanity.
  EXPECT_GE(m.mean_cpu_frequency.value(), cpu().min_frequency().value() - 1e-6);
  EXPECT_LE(m.mean_cpu_frequency.value(), cpu().max_frequency().value() + 1e-6);
  if (detector == DetectorKind::Max) {
    EXPECT_EQ(m.cpu_switches, 0);
  }

  // DPM accounting: sleeps imply wakeups (final sleep may be outstanding).
  EXPECT_GE(m.dpm_sleeps, m.dpm_wakeups == 0 ? 0 : 1);
  if (dpm_choice == DpmChoice::None) {
    EXPECT_EQ(m.dpm_sleeps, 0);
    EXPECT_DOUBLE_EQ(m.dpm_total_wakeup_delay.value(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, EngineGrid,
    ::testing::Combine(
        ::testing::Values(DetectorKind::Ideal, DetectorKind::ChangePoint,
                          DetectorKind::ExpAverage, DetectorKind::Max,
                          DetectorKind::SlidingWindow),
        ::testing::Values(DpmChoice::None, DpmChoice::Timeout,
                          DpmChoice::Renewal, DpmChoice::Tismdp,
                          DpmChoice::Oracle, DpmChoice::Adaptive),
        ::testing::Values(workload::MediaType::Mp3Audio,
                          workload::MediaType::MpegVideo)),
    grid_name);

}  // namespace
}  // namespace dvs::core
