#include "queue/frame_buffer.hpp"

#include <gtest/gtest.h>

namespace dvs::queue {
namespace {

workload::Frame frame(std::uint64_t id, double t) {
  return {id, workload::MediaType::Mp3Audio, seconds(t), 1.0};
}

TEST(FrameBuffer, FifoOrder) {
  FrameBuffer buf;
  buf.push(frame(1, 0.0), seconds(0.0));
  buf.push(frame(2, 0.1), seconds(0.1));
  buf.push(frame(3, 0.2), seconds(0.2));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.pop(seconds(0.3))->id, 1u);
  EXPECT_EQ(buf.pop(seconds(0.4))->id, 2u);
  EXPECT_EQ(buf.pop(seconds(0.5))->id, 3u);
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.pop(seconds(0.6)).has_value());
}

TEST(FrameBuffer, BoundedBufferTailDrops) {
  FrameBuffer buf{2};
  EXPECT_TRUE(buf.push(frame(1, 0.0), seconds(0.0)));
  EXPECT_TRUE(buf.push(frame(2, 0.0), seconds(0.0)));
  EXPECT_FALSE(buf.push(frame(3, 0.0), seconds(0.0)));
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.total_pushed(), 2u);
}

TEST(FrameBuffer, DelayStatsFromDepartures) {
  FrameBuffer buf;
  buf.record_departure(seconds(1.0), seconds(1.1));
  buf.record_departure(seconds(2.0), seconds(2.3));
  EXPECT_EQ(buf.delay_stats().count(), 2u);
  EXPECT_NEAR(buf.delay_stats().mean(), 0.2, 1e-12);
  EXPECT_NEAR(buf.delay_stats().max(), 0.3, 1e-12);
  EXPECT_THROW((void)(buf.record_departure(seconds(5.0), seconds(4.0))), std::logic_error);
}

TEST(FrameBuffer, OccupancyIsTimeWeighted) {
  FrameBuffer buf;
  buf.push(frame(1, 0.0), seconds(0.0));   // 0 frames for [0,0)
  buf.push(frame(2, 0.0), seconds(10.0));  // 1 frame for [0,10)
  buf.pop(seconds(20.0));                  // 2 frames for [10,20)
  buf.pop(seconds(30.0));                  // 1 frame for [20,30)
  // Mean occupancy over [0,30): (1*10 + 2*10 + 1*10)/30 = 4/3.
  EXPECT_NEAR(buf.occupancy_stats().mean(), 4.0 / 3.0, 1e-12);
}

TEST(FrameBuffer, TimeMustNotRegress) {
  FrameBuffer buf;
  buf.push(frame(1, 0.0), seconds(5.0));
  EXPECT_THROW((void)(buf.push(frame(2, 0.0), seconds(4.0))), std::logic_error);
}

}  // namespace
}  // namespace dvs::queue
