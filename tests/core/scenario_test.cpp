#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <unordered_set>

#include "hw/smartbadge.hpp"

namespace dvs::core {
namespace {

TEST(MixSeed, DeterministicAndSensitiveToBothInputs) {
  EXPECT_EQ(mix_seed(1, 2), mix_seed(1, 2));
  EXPECT_NE(mix_seed(1, 2), mix_seed(1, 3));
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 2));
  EXPECT_NE(mix_seed(0, 0), 0u);
}

TEST(WorkloadSpec, NamesEncodeTheAxisValue) {
  EXPECT_EQ(WorkloadSpec::mp3("ACEFBD").name(), "mp3:ACEFBD");
  EXPECT_EQ(WorkloadSpec::mpeg("football").name(), "mpeg:football");
  EXPECT_EQ(WorkloadSpec::mpeg("football", seconds(45.0)).name(),
            "mpeg:football@45s");
  SessionConfig scfg;
  scfg.cycles = 8;
  scfg.mpeg_segment = seconds(45.0);
  EXPECT_EQ(WorkloadSpec::usage_session(scfg).name(), "session:8x45s");
}

TEST(WorkloadSpec, DefaultDelayTargetsFollowThePaper) {
  EXPECT_DOUBLE_EQ(WorkloadSpec::mp3("A").default_delay_target().value(), 0.15);
  EXPECT_DOUBLE_EQ(WorkloadSpec::mpeg("football").default_delay_target().value(),
                   0.1);
  EXPECT_DOUBLE_EQ(
      WorkloadSpec::usage_session({}).default_delay_target().value(), 0.1);
}

TEST(WorkloadSpec, ValidateRejectsUnknownClipsAndLabels) {
  EXPECT_NO_THROW(WorkloadSpec::mp3("ACEFBD").validate());
  EXPECT_NO_THROW(WorkloadSpec::mpeg("terminator2").validate());
  EXPECT_NO_THROW(WorkloadSpec::usage_session({}).validate());
  EXPECT_THROW(WorkloadSpec::mp3("").validate(), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::mp3("ACEG").validate(), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::mpeg("nosuchclip").validate(),
               std::invalid_argument);
  // A sweep rejects it at expansion, before any point or asset exists.
  ScenarioSpec s;
  s.workloads = {WorkloadSpec::mp3("A"), WorkloadSpec::mpeg("nosuchclip")};
  EXPECT_THROW((void)s.expand(), std::invalid_argument);
}

TEST(DpmSpec, NamesEncodeParameters) {
  EXPECT_EQ(DpmSpec{}.name(), "none");
  DpmSpec t;
  t.kind = DpmKind::Timeout;
  EXPECT_EQ(t.name(), "timeout(2s,30s)");
  DpmSpec ti;
  ti.kind = DpmKind::Tismdp;
  ti.max_delay = seconds(0.5);
  EXPECT_EQ(ti.name(), "tismdp(0.5s)");
}

TEST(DpmSpec, KindStringsRoundTrip) {
  for (DpmKind k : {DpmKind::None, DpmKind::Timeout, DpmKind::Renewal,
                    DpmKind::Tismdp, DpmKind::Adaptive, DpmKind::Oracle}) {
    const auto parsed = dpm_kind_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(dpm_kind_from_string("bogus").has_value());
}

TEST(ScenarioSpec, ExpandCountsAndOrder) {
  ScenarioSpec s;
  s.workloads = {WorkloadSpec::mp3("A"), WorkloadSpec::mp3("B")};
  s.detectors = {DetectorKind::ChangePoint, DetectorKind::Max};
  s.replicates = 3;
  s.base_seed = 11;

  EXPECT_EQ(s.num_cells(), 4u);
  EXPECT_EQ(s.num_points(), 12u);
  const std::vector<RunPoint> pts = s.expand();
  ASSERT_EQ(pts.size(), 12u);

  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].index, i);
    // Replicates of one cell are adjacent (cell ids are contiguous).
    EXPECT_EQ(pts[i].cell, i / 3);
    EXPECT_EQ(pts[i].replicate, static_cast<int>(i % 3));
  }
  // Detector varies inside a workload: first 6 points are workload A.
  EXPECT_EQ(pts[0].workload.mp3_labels, "A");
  EXPECT_EQ(pts[0].detector, DetectorKind::ChangePoint);
  EXPECT_EQ(pts[3].detector, DetectorKind::Max);
  EXPECT_EQ(pts[6].workload.mp3_labels, "B");
}

TEST(ScenarioSpec, TraceSeedSharedAcrossDetectorsUniqueEngineSeeds) {
  ScenarioSpec s;
  s.workloads = {WorkloadSpec::mp3("A")};
  s.detectors = {DetectorKind::Ideal, DetectorKind::ChangePoint,
                 DetectorKind::Max};
  s.replicates = 2;
  s.base_seed = 42;
  const std::vector<RunPoint> pts = s.expand();
  ASSERT_EQ(pts.size(), 6u);

  // The paper compares detectors "on the same inputs": within a replicate,
  // all detectors see the same trace seed; across replicates it differs.
  for (const RunPoint& p : pts) {
    const RunPoint& ref = pts[static_cast<std::size_t>(p.replicate)];
    EXPECT_EQ(p.trace_seed, ref.trace_seed) << "point " << p.index;
  }
  EXPECT_NE(pts[0].trace_seed, pts[1].trace_seed);

  // Engine seeds are an independent substream, unique per point.
  std::unordered_set<std::uint64_t> engine_seeds;
  for (const RunPoint& p : pts) {
    EXPECT_TRUE(engine_seeds.insert(p.engine_seed).second) << "point " << p.index;
    EXPECT_NE(p.engine_seed, p.trace_seed);
  }
}

TEST(ScenarioSpec, ZeroDelayTargetResolvesToMediaDefault) {
  ScenarioSpec s;
  s.workloads = {WorkloadSpec::mp3("A"), WorkloadSpec::mpeg("football")};
  const std::vector<RunPoint> pts = s.expand();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].delay_target.value(), 0.15);
  EXPECT_DOUBLE_EQ(pts[1].delay_target.value(), 0.1);
}

TEST(ScenarioSpec, ExpandRejectsEmptyAxes) {
  ScenarioSpec s;  // no workloads
  EXPECT_THROW((void)s.expand(), std::logic_error);
  s.workloads = {WorkloadSpec::mp3("A")};
  s.replicates = 0;
  EXPECT_THROW((void)s.expand(), std::logic_error);
}

TEST(CpuByName, ResolvesCatalogEntriesAndRejectsUnknown) {
  EXPECT_GT(cpu_by_name("sa1100").max_frequency().value(), 0.0);
  EXPECT_GT(cpu_by_name("crusoe").max_frequency().value(), 0.0);
  EXPECT_GT(cpu_by_name("frequency-only").max_frequency().value(), 0.0);
  EXPECT_THROW((void)cpu_by_name("z80"), std::invalid_argument);
}

TEST(BuiltinScenarios, AllExpandAndHaveUniqueNames) {
  std::set<std::string> names;
  for (const ScenarioSpec& s : builtin_scenarios()) {
    EXPECT_TRUE(names.insert(s.name).second) << s.name;
    const std::vector<RunPoint> pts = s.expand();
    EXPECT_EQ(pts.size(), s.num_points()) << s.name;
    EXPECT_GT(pts.size(), 0u) << s.name;
  }
  EXPECT_NE(find_scenario("table3"), nullptr);
  EXPECT_NE(find_scenario("table5"), nullptr);
  EXPECT_NE(find_scenario("quick"), nullptr);
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(BuiltinScenarios, Table5CellsEnumerateTheFourConfigurations) {
  const ScenarioSpec* s = find_scenario("table5");
  ASSERT_NE(s, nullptr);
  const std::vector<RunPoint> pts = s->expand();
  ASSERT_EQ(pts.size(), 4u);
  // None, DVS, DPM, Both — the order bench_table5 prints.
  EXPECT_EQ(pts[0].detector, DetectorKind::Max);
  EXPECT_EQ(pts[0].dpm.kind, DpmKind::None);
  EXPECT_EQ(pts[1].detector, DetectorKind::ChangePoint);
  EXPECT_EQ(pts[1].dpm.kind, DpmKind::None);
  EXPECT_EQ(pts[2].detector, DetectorKind::Max);
  EXPECT_EQ(pts[2].dpm.kind, DpmKind::Tismdp);
  EXPECT_EQ(pts[3].detector, DetectorKind::ChangePoint);
  EXPECT_EQ(pts[3].dpm.kind, DpmKind::Tismdp);
}

TEST(MakeDpmPolicy, InstantiatesEachKindFresh) {
  const hw::SmartBadge badge;
  const dpm::DpmCostModel costs = dpm::smartbadge_cost_model(badge);
  const auto idle = std::make_shared<dpm::ParetoIdle>(1.8, seconds(8.0));

  DpmSpec none;
  EXPECT_EQ(make_dpm_policy(none, costs, idle), nullptr);
  for (DpmKind k : {DpmKind::Timeout, DpmKind::Renewal, DpmKind::Tismdp,
                    DpmKind::Adaptive, DpmKind::Oracle}) {
    DpmSpec spec;
    spec.kind = k;
    const auto a = make_dpm_policy(spec, costs, idle);
    const auto b = make_dpm_policy(spec, costs, idle);
    ASSERT_NE(a, nullptr) << to_string(k);
    // Policies are stateful; every call must mint a fresh instance.
    EXPECT_NE(a.get(), b.get()) << to_string(k);
  }
}

}  // namespace
}  // namespace dvs::core
