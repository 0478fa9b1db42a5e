// Discrete-event simulation kernel.
//
// Frame arrivals, decode completions, DPM timeouts and sleep steps, wakeup
// completions and the periodic samplers run as events on this kernel.
// Events fire in timestamp order; ties break in scheduling order (a FIFO
// sequence number) so runs are fully deterministic.  Events are
// cancellable (a DPM policy cancels its pending sleep transition when a
// request arrives).
//
// A client may also do work at an exact kernel position without putting
// it on the heap: reserve_seq() takes the sequence number an event would
// have had, due_now() says whether any live event could run before work
// reserved at now(), and the dispatch hook shows the client each event's
// (at, seq) just before it runs, so work held outside the heap can be
// applied at its own position first (core::Engine does both for its
// same-time follow-ups and timed component transitions).
//
// Storage is allocation-lean: callbacks live in a generation-checked slot
// pool (recycled LIFO, so steady state touches the same few cache lines),
// an EventId packs (slot, generation) so stale handles are rejected in
// O(1), and the callback type keeps typical captures inline (see
// event_fn.hpp).  Cancelled events stay in the heap as tombstones until
// popped — but the heap compacts lazily whenever tombstones outnumber live
// events, so a cancel-heavy workload (a DPM policy cancelling a pending
// sleep on every arrival) keeps the heap within a constant factor of the
// live event count instead of growing without bound.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/event_fn.hpp"

namespace dvs::sim {

/// Opaque handle to a scheduled event; valid until the event fires or is
/// cancelled.  Packs (slot, generation) so reuse of storage never aliases
/// a stale handle.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

/// Kernel-level instrumentation counters (obs::MetricsRegistry feeds on
/// these; tests assert the compaction bound through them).
struct SimulatorStats {
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t tombstones_purged = 0;  ///< skipped on pop or compacted away
  std::uint64_t compactions = 0;
  std::size_t max_heap_size = 0;  ///< high-water mark incl. tombstones
};

/// Event-driven simulator with a monotonically advancing clock.
class Simulator {
 public:
  using Callback = EventFn;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.  Starts at 0.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(Seconds at, Callback fn);

  /// Schedules `fn` to run `delay` from now (delay must be >= 0).
  EventId schedule_in(Seconds delay, Callback fn);

  /// Cancels a pending event.  Returns true if the event was pending (and is
  /// now guaranteed not to fire); false if it already fired, was already
  /// cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// True if an event with this id is still pending.
  [[nodiscard]] bool pending(EventId id) const;

  /// Number of events waiting to fire.
  [[nodiscard]] std::size_t pending_count() const { return live_; }

  /// Takes the next FIFO sequence number without scheduling anything.  Work
  /// the caller keeps off the heap orders exactly like an event scheduled
  /// at this point, and later events keep the numbers they would have had.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// True when a live (not cancelled) event is due at exactly now().
  /// Such an event was scheduled before any seq reserved from here on, so
  /// work reserved at now() may run ahead of it only when this is false.
  [[nodiscard]] bool due_now() const;

  /// Called with each event's (at, seq) just before the event runs, before
  /// the clock moves to `at`.  The hook must not schedule or cancel.
  using DispatchHook = void (*)(void* ctx, Seconds at, std::uint64_t seq);

  /// Installs the one dispatch hook (null `fn` removes it).
  void set_dispatch_hook(DispatchHook fn, void* ctx) {
    hook_ = fn;
    hook_ctx_ = ctx;
  }

  /// Runs a single event.  Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains or `stop()` is called.
  void run();

  /// Runs events with timestamp <= horizon, then sets the clock to exactly
  /// `horizon` (even if no event lands on it).  Stops early on stop().
  void run_until(Seconds horizon);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Total number of events executed so far (for microbenchmarks and tests).
  [[nodiscard]] std::uint64_t executed_count() const { return stats_.executed; }

  /// Kernel counters for observability.
  [[nodiscard]] const SimulatorStats& stats() const { return stats_; }

  /// Heap entries including tombstones; bounded by the lazy compaction at
  /// < max(2 * pending_count(), compaction floor) + 1.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

 private:
  struct Scheduled {
    double at;
    std::uint64_t seq;   // FIFO among equal timestamps
    std::uint32_t slot;
    std::uint32_t gen;
    // Ordering for a min-heap via std::greater.
    friend bool operator>(const Scheduled& a, const Scheduled& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Pool slot: the callback of the occupying event plus the generation
  /// that validates EventIds and heap entries against slot reuse.  The
  /// generation bumps on every release (fire or cancel), so a heap entry
  /// or handle whose generation mismatches is dead.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static EventId pack(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(gen) << 32) |
                   (static_cast<std::uint64_t>(slot) + 1)};
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id.value & 0xffffffffu) - 1;
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id.value >> 32);
  }

  /// True when the heap entry still refers to the live occupant of its slot.
  [[nodiscard]] bool live_entry(const Scheduled& s) const {
    return slots_[s.slot].gen == s.gen;
  }

  EventId schedule_impl(double at, Callback fn);
  [[nodiscard]] bool live_due_at(std::size_t i, double t) const;
  std::uint32_t claim_slot();
  void release_slot(std::uint32_t slot);
  void execute_next();
  void pop_heap_top();
  void skip_tombstones();
  void maybe_compact();

  Seconds now_{0.0};
  std::uint64_t next_seq_ = 0;
  bool stop_requested_ = false;
  // Min-heap over (at, seq) maintained with std::push_heap/pop_heap so the
  // storage is reachable for compaction.
  std::vector<Scheduled> heap_;
  std::size_t tombstones_ = 0;  ///< heap entries whose event was cancelled
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;  ///< slots currently holding a pending event
  SimulatorStats stats_;
  DispatchHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
};

}  // namespace dvs::sim
