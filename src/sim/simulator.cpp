#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace dvs::sim {

namespace {
// Below this many tombstones compaction is not worth the heap rebuild.
constexpr std::size_t kCompactionFloor = 64;
// Typical engine sessions keep tens of events in flight; pre-sizing to the
// compaction floor makes the steady state reallocation-free.
constexpr std::size_t kInitialCapacity = kCompactionFloor;
}  // namespace

Simulator::Simulator() {
  heap_.reserve(kInitialCapacity);
  slots_.reserve(kInitialCapacity);
}

std::uint32_t Simulator::claim_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  DVS_CHECK_MSG(slots_.size() < kNoSlot, "event slot pool exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // invalidates every outstanding handle/heap entry for the slot
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

EventId Simulator::schedule_impl(double at, Callback fn) {
  DVS_CHECK_MSG(at >= now_.value(), "cannot schedule into the past");
  DVS_CHECK_MSG(static_cast<bool>(fn), "null event callback");
  const std::uint32_t slot = claim_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  ++live_;
  heap_.push_back(Scheduled{at, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++stats_.scheduled;
  stats_.max_heap_size = std::max(stats_.max_heap_size, heap_.size());
  return pack(slot, s.gen);
}

EventId Simulator::schedule_at(Seconds at, Callback fn) {
  return schedule_impl(at.value(), std::move(fn));
}

EventId Simulator::schedule_in(Seconds delay, Callback fn) {
  DVS_CHECK_MSG(delay.value() >= 0.0, "negative delay");
  return schedule_impl(now_.value() + delay.value(), std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size() || slots_[slot].gen != gen_of(id)) return false;
  slots_[slot].fn = Callback{};  // drop captures eagerly
  release_slot(slot);
  ++tombstones_;
  ++stats_.cancelled;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  // Lazy compaction: rebuild only when tombstones dominate, so the
  // amortized cost per cancel stays O(log n) while the heap stays within a
  // constant factor of the live event count.
  if (tombstones_ < kCompactionFloor || tombstones_ <= live_) return;
  std::erase_if(heap_, [this](const Scheduled& s) { return !live_entry(s); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  stats_.tombstones_purged += tombstones_;
  tombstones_ = 0;
  ++stats_.compactions;
}

bool Simulator::pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() && slots_[slot].gen == gen_of(id);
}

bool Simulator::due_now() const { return live_due_at(0, now_.value()); }

bool Simulator::live_due_at(std::size_t i, double t) const {
  // Nothing on the heap is due before now(), so by the heap order the
  // entries due at now() form a subtree at the root: search only that.
  if (i >= heap_.size() || heap_[i].at != t) return false;
  return live_entry(heap_[i]) || live_due_at(2 * i + 1, t) ||
         live_due_at(2 * i + 2, t);
}

void Simulator::pop_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
}

void Simulator::skip_tombstones() {
  while (!heap_.empty() && !live_entry(heap_.front())) {
    pop_heap_top();
    DVS_CHECK(tombstones_ > 0);
    --tombstones_;
    ++stats_.tombstones_purged;
  }
}

void Simulator::execute_next() {
  // Precondition: heap has a live head.
  const Scheduled top = heap_.front();
  if (hook_ != nullptr) hook_(hook_ctx_, Seconds{top.at}, top.seq);
  pop_heap_top();
  Slot& s = slots_[top.slot];
  DVS_CHECK(s.gen == top.gen);
  Callback fn = std::move(s.fn);
  release_slot(top.slot);  // before fn() so the callback can re-schedule
  now_ = Seconds{top.at};
  ++stats_.executed;
  fn();
}

bool Simulator::step() {
  skip_tombstones();
  if (heap_.empty()) return false;
  execute_next();
  return true;
}

void Simulator::run() {
  stop_requested_ = false;
  while (!stop_requested_ && step()) {
  }
}

void Simulator::run_until(Seconds horizon) {
  DVS_CHECK_MSG(horizon.value() >= now_.value(), "horizon is in the past");
  stop_requested_ = false;
  while (!stop_requested_) {
    skip_tombstones();
    if (heap_.empty() || heap_.front().at > horizon.value()) break;
    execute_next();
  }
  if (!stop_requested_ && now_ < horizon) now_ = horizon;
}

}  // namespace dvs::sim
