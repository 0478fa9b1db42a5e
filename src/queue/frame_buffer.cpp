#include "queue/frame_buffer.hpp"

namespace dvs::queue {

FrameBuffer::FrameBuffer(std::size_t capacity) : capacity_(capacity) {}

void FrameBuffer::accrue_occupancy(Seconds now) {
  DVS_CHECK_MSG(now >= last_change_, "FrameBuffer: time moved backwards");
  occupancy_stats_.add(static_cast<double>(frames_.size()),
                       (now - last_change_).value());
  last_change_ = now;
}

bool FrameBuffer::push(const workload::Frame& f, Seconds now) {
  accrue_occupancy(now);
  if (capacity_ != 0 && frames_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  frames_.push_back(f);
  ++pushed_;
  return true;
}

std::optional<workload::Frame> FrameBuffer::pop(Seconds now) {
  accrue_occupancy(now);
  if (frames_.empty()) return std::nullopt;
  workload::Frame f = frames_.front();
  frames_.pop_front();
  return f;
}

void FrameBuffer::record_departure(Seconds arrival, Seconds departure) {
  DVS_CHECK_MSG(departure >= arrival, "FrameBuffer: departure precedes arrival");
  delay_stats_.add((departure - arrival).value());
}

}  // namespace dvs::queue
