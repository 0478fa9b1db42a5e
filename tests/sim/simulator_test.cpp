#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace dvs::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().value(), 3.0);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(seconds(1.0), [&] { order.push_back(2); });
  sim.schedule_at(seconds(1.0), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(seconds(5.0), [&] {
    sim.schedule_in(seconds(2.5), [&] { fired_at = sim.now().value(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, CannotScheduleIntoPast) {
  Simulator sim;
  sim.schedule_at(seconds(2.0), [] {});
  sim.run();
  EXPECT_THROW((void)(sim.schedule_at(seconds(1.0), [] {})), std::logic_error);
  EXPECT_THROW((void)(sim.schedule_in(seconds(-0.1), [] {})), std::logic_error);
}

TEST(Simulator, NullCallbackRejected) {
  Simulator sim;
  EXPECT_THROW((void)(sim.schedule_at(seconds(1.0), Simulator::Callback{})), std::logic_error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(seconds(1.0), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 10) sim.schedule_in(seconds(1.0), chain);
  };
  sim.schedule_at(seconds(0.0), chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now().value(), 9.0);
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1.0), [&] { ++fired; });
  sim.schedule_at(seconds(5.0), [&] { ++fired; });
  sim.run_until(seconds(3.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().value(), 3.0);
  sim.run_until(seconds(10.0));
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().value(), 10.0);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1.0), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(seconds(2.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stop_requested());
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(seconds(1.0), [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PendingCountTracksQueue) {
  Simulator sim;
  EXPECT_EQ(sim.pending_count(), 0u);
  const EventId a = sim.schedule_at(seconds(1.0), [] {});
  sim.schedule_at(seconds(2.0), [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.executed_count(), 1u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    // Deterministic scramble of times.
    const double t = static_cast<double>((i * 7919) % 10007);
    sim.schedule_at(seconds(t), [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed_count(), 10000u);
}

// ---- Work kept off the heap: reserve_seq, due_now, the dispatch hook ----

struct Dispatched {
  std::vector<std::pair<double, std::uint64_t>> seen;  // (at, seq)
  std::vector<double> clock;  // now() when the hook ran
  const Simulator* sim = nullptr;
};

void record_dispatch(void* ctx, Seconds at, std::uint64_t seq) {
  auto* d = static_cast<Dispatched*>(ctx);
  d->seen.emplace_back(at.value(), seq);
  d->clock.push_back(d->sim->now().value());
}

TEST(Simulator, ReservedSeqOrdersLikeAScheduledEventAtAnEqualTime) {
  // Reference: three events scheduled back to back at one time.
  Simulator ref;
  Dispatched all;
  all.sim = &ref;
  ref.set_dispatch_hook(record_dispatch, &all);
  for (int i = 0; i < 3; ++i) ref.schedule_at(seconds(1.0), [] {});
  ref.run();
  ASSERT_EQ(all.seen.size(), 3u);

  // The middle one replaced by a reservation: the others keep their
  // numbers, and the reserved one falls exactly between them.
  Simulator sim;
  Dispatched kept;
  kept.sim = &sim;
  sim.set_dispatch_hook(record_dispatch, &kept);
  sim.schedule_at(seconds(1.0), [] {});
  const std::uint64_t reserved = sim.reserve_seq();
  sim.schedule_at(seconds(1.0), [] {});
  sim.run();
  ASSERT_EQ(kept.seen.size(), 2u);
  EXPECT_EQ(kept.seen[0], all.seen[0]);
  EXPECT_EQ(reserved, all.seen[1].second);
  EXPECT_EQ(kept.seen[1], all.seen[2]);
  EXPECT_EQ(sim.stats().scheduled, 2u);  // a reservation schedules nothing
}

TEST(Simulator, DispatchHookSeesEveryEventInExecutionOrder) {
  Simulator sim;
  Dispatched d;
  d.sim = &sim;
  sim.set_dispatch_hook(record_dispatch, &d);
  std::vector<double> ran;
  const auto at = [&](double t) {
    return sim.schedule_at(seconds(t), [&] {
      ran.push_back(sim.now().value());
      if (sim.now().value() == 1.0 && ran.size() == 1) {
        sim.schedule_at(seconds(1.0), [&] { ran.push_back(sim.now().value()); });
      }
    });
  };
  at(2.0);
  at(1.0);
  const EventId dead = at(1.5);
  at(1.0);
  sim.cancel(dead);
  sim.run();

  ASSERT_EQ(d.seen.size(), ran.size());
  EXPECT_EQ(d.seen.size(), sim.executed_count());
  for (std::size_t i = 0; i < d.seen.size(); ++i) {
    EXPECT_EQ(d.seen[i].first, ran[i]);
    if (i > 0) {
      EXPECT_LT(d.seen[i - 1], d.seen[i]) << "out of (at, seq) order";
    }
  }
  // Ties in scheduling order, the cancelled event never seen, and the hook
  // runs before the clock moves to the event.
  using P = std::pair<double, std::uint64_t>;
  EXPECT_EQ(d.seen, (std::vector<P>{{1.0, 1}, {1.0, 3}, {1.0, 4}, {2.0, 0}}));
  EXPECT_EQ(d.clock, (std::vector<double>{0.0, 1.0, 1.0, 1.0}));

  sim.set_dispatch_hook(nullptr, nullptr);
  sim.schedule_at(seconds(3.0), [] {});
  sim.run();
  EXPECT_EQ(d.seen.size(), 4u);
}

TEST(Simulator, DueNowIgnoresCancelledEntries) {
  Simulator sim;
  EXPECT_FALSE(sim.due_now());
  sim.schedule_at(seconds(0.5), [] {});  // later: not due now
  EXPECT_FALSE(sim.due_now());
  const EventId a = sim.schedule_at(seconds(0.0), [] {});
  EXPECT_TRUE(sim.due_now());
  sim.cancel(a);
  EXPECT_FALSE(sim.due_now()) << "a tombstone is not a due event";

  // A tombstone on top of a live entry at the same time: still due.
  const EventId b = sim.schedule_at(seconds(0.0), [] {});
  sim.schedule_at(seconds(0.0), [] {});
  sim.cancel(b);
  EXPECT_TRUE(sim.due_now());

  // Inside a handler, only events at exactly that time count.
  bool due_inside = true;
  sim.run_until(seconds(0.0));
  sim.schedule_at(seconds(1.0), [&] { due_inside = sim.due_now(); });
  const EventId c = sim.schedule_at(seconds(1.0), [] {});
  sim.schedule_at(seconds(1.0 + 1e-9), [] {});
  sim.cancel(c);
  sim.run();
  EXPECT_FALSE(due_inside);
}

}  // namespace
}  // namespace dvs::sim
