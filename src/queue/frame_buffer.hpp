// The frame buffer (queue) between the WLAN and the decoder.
//
// "Portable devices normally have a buffer for storing requests that have
// not been serviced yet ... our queue model contains only the number of
// frames waiting service" (Section 2.3).  The buffer is FIFO; each frame
// remembers its arrival time so the *total* delay (waiting + decoding) can
// be measured at departure — the quantity Equation 5 keeps constant.
#pragma once

#include <deque>
#include <optional>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "workload/media.hpp"

namespace dvs::queue {

class FrameBuffer {
 public:
  /// capacity 0 = unbounded.  A bounded buffer drops the *newest* frame on
  /// overflow (tail drop) and counts it.
  explicit FrameBuffer(std::size_t capacity = 0);

  /// Enqueues a frame; returns false (and counts a drop) when full.
  bool push(const workload::Frame& f, Seconds now);

  /// Dequeues the oldest frame; empty optional when the buffer is empty.
  std::optional<workload::Frame> pop(Seconds now);

  [[nodiscard]] bool empty() const { return frames_.empty(); }
  [[nodiscard]] std::size_t size() const { return frames_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t total_pushed() const { return pushed_; }

  /// Records the departure of a frame that arrived at `arrival`; feeds the
  /// delay statistics.  Called by the system when decode completes.
  void record_departure(Seconds arrival, Seconds departure);

  /// Total-delay statistics over all departed frames.
  [[nodiscard]] const RunningStats& delay_stats() const { return delay_stats_; }

  /// Time-weighted queue-occupancy statistics (updated on push/pop).
  [[nodiscard]] const TimeWeightedStats& occupancy_stats() const {
    return occupancy_stats_;
  }

 private:
  void accrue_occupancy(Seconds now);

  std::size_t capacity_;
  std::deque<workload::Frame> frames_;
  std::size_t dropped_ = 0;
  std::uint64_t pushed_ = 0;
  RunningStats delay_stats_;
  TimeWeightedStats occupancy_stats_;
  Seconds last_change_{0.0};
};

}  // namespace dvs::queue
