#include "workload/work_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/stats.hpp"

namespace dvs::workload {
namespace {

TEST(ConstantWork, AlwaysOne) {
  ConstantWork w;
  Rng rng{1};
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(w.next(rng), 1.0);
}

TEST(Mp3Work, TightUnitMeanJitter) {
  Mp3Work w{0.05};
  Rng rng{2};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    const double m = w.next(rng);
    EXPECT_GT(m, 0.0);
    EXPECT_GE(m, 1.0 - 0.15 - 1e-12);  // truncated at 3 sigma
    EXPECT_LE(m, 1.0 + 0.15 + 1e-12);
    stats.add(m);
  }
  EXPECT_NEAR(stats.mean(), 1.0, 0.005);
  EXPECT_NEAR(stats.stddev(), 0.05, 0.01);
}

TEST(Mp3Work, RejectsCrazySigma) {
  EXPECT_THROW((void)(Mp3Work{0.5}), std::logic_error);
  EXPECT_THROW((void)(Mp3Work{-0.1}), std::logic_error);
}

TEST(MpegWork, GopPatternIsStandard) {
  // Without content noise a frame's work is its type's weight over the GOP
  // mean, so the work sequence spells the GOP.
  const MpegWork::Weights weights;
  MpegWork w{weights, 0.0};
  Rng rng{1};
  std::vector<double> work;
  for (int i = 0; i < 13; ++i) work.push_back(w.next(rng));
  EXPECT_DOUBLE_EQ(work[0] / work[1], weights.i / weights.b);  // I, then B
  EXPECT_DOUBLE_EQ(work[3] / work[1], weights.p / weights.b);  // P at 3
  for (int i = 1; i < 12; ++i) EXPECT_LT(work[i], work[0]) << i;  // one I
  EXPECT_EQ(work[12], work[0]);  // the 12-frame GOP wraps
}

TEST(MpegWork, UnitMeanOverGops) {
  MpegWork w;
  Rng rng{3};
  RunningStats stats;
  for (int i = 0; i < 120000; ++i) stats.add(w.next(rng));
  EXPECT_NEAR(stats.mean(), 1.0, 0.01);
}

TEST(MpegWork, FrameTypeSpreadIsRoughlyFactorThree) {
  // The paper cites a factor of ~3 in cycles between MPEG frames; with zero
  // content noise the ratio is exactly I/B.
  MpegWork w{MpegWork::Weights{}, 0.0};
  Rng rng{4};
  double lo = 1e9;
  double hi = 0.0;
  for (int i = 0; i < 12; ++i) {
    const double m = w.next(rng);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_NEAR(hi / lo, 2.2 / 0.62, 1e-9);
  EXPECT_GT(hi / lo, 3.0);
}

TEST(MpegWork, ResetRestartsGopPhase) {
  MpegWork w{MpegWork::Weights{}, 0.0};
  Rng rng{5};
  const double first = w.next(rng);  // I frame
  w.next(rng);                       // B
  w.reset();
  EXPECT_DOUBLE_EQ(w.next(rng), first);  // I frame again (no noise)
}

TEST(MpegWork, HigherSigmaMeansMoreSpread) {
  Rng rng1{6};
  Rng rng2{6};
  MpegWork calm{MpegWork::Weights{}, 0.02};
  MpegWork wild{MpegWork::Weights{}, 0.5};
  RunningStats s_calm;
  RunningStats s_wild;
  for (int i = 0; i < 20000; ++i) {
    s_calm.add(calm.next(rng1));
    s_wild.add(wild.next(rng2));
  }
  EXPECT_GT(s_wild.stddev(), s_calm.stddev());
}

TEST(MpegWork, InvalidWeightsThrow) {
  EXPECT_THROW((void)(MpegWork(MpegWork::Weights{0.0, 1.0, 1.0}, 0.1)), std::logic_error);
  EXPECT_THROW((void)(MpegWork(MpegWork::Weights{1.0, 1.0, 1.0}, 1.5)), std::logic_error);
}

}  // namespace
}  // namespace dvs::workload
