#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_ms);
}

TEST(Scheduler, SameTimestampIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  SimTime seen;
  s.schedule_at(10_ms, [&] {
    s.schedule_in(5_ms, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 15_ms);
}

TEST(Scheduler, PastSchedulingClampsToNow) {
  Scheduler s;
  SimTime seen;
  s.schedule_at(10_ms, [&] {
    s.schedule_at(2_ms, [&] { seen = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(seen, 10_ms);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(1_ms, [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  s.cancel(id);
  EXPECT_FALSE(s.pending(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelInvalidAndStaleIdsAreNoops) {
  Scheduler s;
  s.cancel(kInvalidEvent);
  const EventId id = s.schedule_at(1_ms, [] {});
  s.run();
  s.cancel(id);  // already executed
  EXPECT_FALSE(s.pending(id));
}

TEST(Scheduler, CancelOneOfManyAtSameTime) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1_ms, [&] { order.push_back(0); });
  const EventId id = s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(1_ms, [&] { order.push_back(2); });
  s.cancel(id);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Scheduler, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.run_until(2_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 2_ms);
  s.run_until(10_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 10_ms);  // clock advances even with no events
}

TEST(Scheduler, RunUntilExecutesEventsScheduledDuringRun) {
  Scheduler s;
  int count = 0;
  // A self-rescheduling ticker.
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) s.schedule_in(1_ms, tick);
  };
  s.schedule_at(1_ms, tick);
  s.run_until(10_ms);
  EXPECT_EQ(count, 5);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.schedule_at(1_ms, [&] { ++count; });
  s.schedule_at(2_ms, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, MaxEventsBound) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 100; ++i) s.schedule_at(1_ms, [&] { ++count; });
  EXPECT_EQ(s.run(30), 30u);
  EXPECT_EQ(count, 30);
}

TEST(Scheduler, QueueSizeExcludesCancelled) {
  Scheduler s;
  const EventId a = s.schedule_at(1_ms, [] {});
  s.schedule_at(2_ms, [] {});
  EXPECT_EQ(s.queue_size(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.queue_size(), 1u);
  EXPECT_FALSE(s.empty());
}

TEST(Scheduler, EventsExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 4; ++i) s.schedule_at(SimTime::millis(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 4u);
}

TEST(Scheduler, SchedulingFromWithinEvent) {
  Scheduler s;
  std::vector<SimTime> at;
  s.schedule_at(1_ms, [&] {
    at.push_back(s.now());
    s.schedule_in(1_ms, [&] { at.push_back(s.now()); });
    s.schedule_at(s.now(), [&] { at.push_back(s.now()); });  // same time
  });
  s.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 1_ms);
  EXPECT_EQ(at[1], 1_ms);  // same-time event runs before later ones
  EXPECT_EQ(at[2], 2_ms);
}

TEST(Scheduler, RunUntilIncludesSameTimeEventScheduledAtBoundary) {
  // Regression: an event scheduled at exactly `t` *by* an event running at
  // `t` must still execute within run_until(t), not leak past the boundary.
  Scheduler s;
  bool chained = false;
  s.schedule_at(5_ms, [&] {
    s.schedule_at(5_ms, [&] { chained = true; });
  });
  s.run_until(5_ms);
  EXPECT_TRUE(chained);
  EXPECT_EQ(s.now(), 5_ms);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, SlotReuseDoesNotResurrectStaleHandles) {
  // A slot recycled for a new event must not honour the old occupant's id:
  // cancelling or querying the stale handle may not touch the new event.
  Scheduler s;
  const EventId old_id = s.schedule_at(1_ms, [] {});
  s.run();  // slot returns to the free list
  bool ran = false;
  const EventId new_id = s.schedule_at(2_ms, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(s.pending(old_id));
  s.cancel(old_id);  // stale: must be a no-op
  EXPECT_TRUE(s.pending(new_id));
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, CancelledEventsAreSkippedAcrossRunAndRunUntil) {
  // Both dequeue paths (run / run_until) share the cancelled-slot skip; a
  // cancellation must hold whichever one drains the queue.
  Scheduler s;
  std::vector<int> order;
  const EventId a = s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  const EventId c = s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.schedule_at(4_ms, [&] { order.push_back(4); });
  s.cancel(a);
  s.run_until(2_ms);
  s.cancel(c);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
  s.audit_invariants();
}

TEST(Scheduler, CancelAllThenReuseKeepsAccounting) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(s.schedule_at(SimTime::millis(i), [] {}));
  }
  for (const EventId id : ids) s.cancel(id);
  EXPECT_EQ(s.queue_size(), 0u);
  EXPECT_TRUE(s.empty());
  int count = 0;
  for (int i = 0; i < 64; ++i) {
    s.schedule_at(SimTime::millis(i), [&] { ++count; });
  }
  EXPECT_EQ(s.queue_size(), 64u);
  s.run();
  EXPECT_EQ(count, 64);
  s.audit_invariants();
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  SimTime last;
  bool monotonic = true;
  for (int i = 0; i < 10'000; ++i) {
    s.schedule_at(SimTime::micros((i * 7919) % 10'000), [&] {
      if (s.now() < last) monotonic = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(s.events_executed(), 10'000u);
}

}  // namespace

// Reads the queue shape behind the public API: how many delay classes have
// a FIFO and how many loose cells (of delays without one) wait in the head
// heap.
struct SchedulerTestPeer {
  static std::size_t fifos(const Scheduler& s) { return s.fifos_.size(); }
  static std::size_t loose(const Scheduler& s) {
    std::size_t n = 0;
    for (const auto& e : s.heads_) n += e.fifo == Scheduler::kNoFifo;
    return n;
  }
  static constexpr std::size_t kMaxFifos = Scheduler::kMaxFifos;
  static constexpr std::uint32_t kAdmitAfter = Scheduler::kAdmitAfter;
};

namespace {

TEST(Scheduler, PromotedDelayKeepsOrderAcrossLooseAndFifoCells) {
  // Every 10 us, three events at delays 100, 50 and 20 us. Each delay's
  // first kAdmitAfter - 1 events are loose cells; from its
  // kAdmitAfter-th on, the delay has a FIFO. The delays line up so that the
  // 100 us event of tick k, the 50 us event of tick k + 5 and the 20 us event
  // of tick k + 8 fall on the same instant: ties between loose cells and
  // FIFO cells, and between FIFOs, which must run in issue order. One
  // one-shot absolute time ties with them too, and one cell of each kind is
  // cancelled.
  constexpr int kTicks = 16;
  constexpr std::int64_t kDelaysUs[] = {100, 50, 20};
  constexpr std::uint32_t kAdmit = SchedulerTestPeer::kAdmitAfter;
  Scheduler s;
  struct Want {
    std::int64_t at_us;
    int issue;
    std::string label;
  };
  std::vector<Want> want;
  std::vector<std::pair<std::int64_t, std::string>> ran;
  int issued = 0;
  const auto add = [&](SimTime at, const std::string& label, bool absolute) {
    const auto fn = [&ran, &s, label] {
      ran.emplace_back(s.now().ns() / 1000, label);
    };
    const EventId id = absolute ? s.schedule_at(at, fn)
                                : s.schedule_in(at - s.now(), fn);
    want.push_back(Want{at.ns() / 1000, issued++, label});
    return id;
  };
  std::vector<EventId> cancelled;
  for (int k = 0; k < kTicks; ++k) {
    s.run_until(SimTime::micros(10 * k));
    for (const std::int64_t d : kDelaysUs) {
      const EventId id =
          add(s.now() + SimTime::micros(d),
              std::to_string(d) + "us@" + std::to_string(k), false);
      // Cancel one loose cell and one FIFO cell of the 100 us class.
      if (d == 100 && (k == 1 || k == kAdmit + 1)) {
        s.cancel(id);
        cancelled.push_back(id);
        want.pop_back();
      }
    }
    if (k == 0) add(SimTime::micros(150), "abs150", true);
    if (k + 1 == static_cast<int>(kAdmit) - 1) {
      // The delays' sightings so far leave every cell loose.
      EXPECT_EQ(SchedulerTestPeer::fifos(s), 0u);
      EXPECT_GT(SchedulerTestPeer::loose(s), 0u);
    }
    if (k + 1 == static_cast<int>(kAdmit)) {
      EXPECT_EQ(SchedulerTestPeer::fifos(s), 3u);  // all three promoted
    }
    s.audit_invariants();
  }
  s.run();
  s.audit_invariants();
  for (const EventId id : cancelled) EXPECT_FALSE(s.pending(id));

  std::sort(want.begin(), want.end(), [](const Want& a, const Want& b) {
    return a.at_us != b.at_us ? a.at_us < b.at_us : a.issue < b.issue;
  });
  ASSERT_EQ(ran.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ran[i].first, want[i].at_us) << "dispatch " << i;
    EXPECT_EQ(ran[i].second, want[i].label) << "dispatch " << i;
  }
  EXPECT_TRUE(s.empty());
}

// Drives a Scheduler and a reference model through one seeded random
// interleaving of schedule_at/schedule_in (past times, many same-time ties),
// cancel (live, already-run, already-cancelled and invalid ids), step,
// run(k) and run_until, with actions that schedule and cancel from inside
// themselves. The model maps each pending (time, issue seq) key to its id,
// so its first element is the event that must run next. Every dispatch is
// checked against it as it happens; after every operation now(),
// queue_size(), empty() and pending() must agree with it.
class SchedulerModel : public ::testing::TestWithParam<int> {
 protected:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at ns, issue seq)

  Scheduler s_;
  Rng rng_{0};
  std::map<Key, EventId> model_;  // pending events in dispatch order
  std::map<EventId, Key> live_;   // the same events, by id
  std::vector<EventId> issued_;  // every id ever returned, incl. dead ones
  std::uint64_t next_seq_ = 1;
  SimTime model_now_;
  std::size_t dispatches_ = 0;
  std::string mismatch_;  // first dispatch that disagreed with the model
  // Delay mode. Near (default): offsets of a few us, which a handful of
  // FIFOs hold. Scatter: half the events draw one of kRecurring recurring
  // delays, more classes than the scheduler has FIFOs, and half a fresh
  // delay of 0-50 000 us, so loose cells, promotions and the FIFO cap
  // all take part.
  bool scatter_ = false;
  std::size_t max_loose_ = 0;
  static constexpr std::int64_t kRecurring = 96;

  // Microsecond offsets from now(); the negative ones clamp to now().
  SimTime random_time(std::int64_t lo, std::int64_t hi) {
    return model_now_ + SimTime::micros(rng_.uniform_int(lo, hi));
  }

  SimTime schedule_time() {
    if (!scatter_) return random_time(-3, 6);
    if (rng_.chance(0.5)) {
      return model_now_ +
             SimTime::micros(37 * rng_.uniform_int(0, kRecurring - 1));
    }
    return random_time(-3, 50'000);
  }

  void schedule(SimTime t, bool relative) {
    const SimTime at = t < model_now_ ? model_now_ : t;
    const Key key{at.ns(), next_seq_++};
    const std::uint64_t seq = key.second;
    Scheduler::Action fn = [this, seq] { on_dispatch(seq); };
    const EventId id = relative ? s_.schedule_in(t - model_now_, std::move(fn))
                                : s_.schedule_at(t, std::move(fn));
    model_.emplace(key, id);
    live_.emplace(id, key);
    issued_.push_back(id);
  }

  void cancel_random() {
    const EventId id =
        issued_.empty() || rng_.chance(0.05)
            ? kInvalidEvent
            : issued_[static_cast<std::size_t>(rng_.uniform_int(
                  0, static_cast<std::int64_t>(issued_.size()) - 1))];
    s_.cancel(id);
    const auto it = live_.find(id);
    if (it == live_.end()) return;  // already run, cancelled or invalid
    model_.erase(it->second);
    live_.erase(it);
  }

  void on_dispatch(std::uint64_t seq) {
    ++dispatches_;
    if (mismatch_.empty()) {
      if (model_.empty()) {
        mismatch_ = "seq " + std::to_string(seq) + " ran; model is empty";
      } else if (model_.begin()->first != Key{s_.now().ns(), seq}) {
        const Key& want = model_.begin()->first;
        mismatch_ = "seq " + std::to_string(seq) + " ran at " +
                    std::to_string(s_.now().ns()) + " ns; model expected seq " +
                    std::to_string(want.second) + " at " +
                    std::to_string(want.first) + " ns";
      }
    }
    if (!mismatch_.empty()) return;
    model_now_ = SimTime::nanos(model_.begin()->first.first);
    live_.erase(model_.begin()->second);
    model_.erase(model_.begin());
    s_.audit_invariants();
    // Mean fan-out below one, so every run_until terminates.
    if (rng_.chance(0.35)) {
      schedule(scatter_ ? schedule_time() : random_time(-2, 4),
               rng_.chance(0.5));
    }
    if (rng_.chance(0.10)) schedule(model_now_, false);  // same-time tie
    if (rng_.chance(0.15)) cancel_random();
  }

  void check_state(int op) {
    ASSERT_TRUE(mismatch_.empty()) << "op " << op << ": " << mismatch_;
    ASSERT_EQ(s_.now(), model_now_) << "op " << op;
    ASSERT_EQ(s_.queue_size(), model_.size()) << "op " << op;
    ASSERT_EQ(s_.empty(), model_.empty()) << "op " << op;
    for (const auto& [id, key] : live_) {
      ASSERT_TRUE(s_.pending(id)) << "op " << op << ": seq " << key.second;
    }
    for (int i = 0; i < 16 && !issued_.empty(); ++i) {
      const EventId id = issued_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(issued_.size()) - 1))];
      ASSERT_EQ(s_.pending(id), live_.count(id) == 1) << "op " << op;
    }
    EXPECT_FALSE(s_.pending(kInvalidEvent));
    s_.audit_invariants();
    max_loose_ = std::max(max_loose_, SchedulerTestPeer::loose(s_));
  }

  void drive(int ops) {
    rng_.reseed(static_cast<std::uint64_t>(GetParam()));
    for (int op = 0; op < ops; ++op) {
      const double r = rng_.uniform();
      if (r < 0.40) {
        schedule(schedule_time(), rng_.chance(0.25));
      } else if (r < 0.55) {
        cancel_random();
      } else if (r < 0.75) {
        const std::size_t before = dispatches_;
        const bool had = !model_.empty();
        ASSERT_EQ(s_.step(), had) << "op " << op;
        ASSERT_EQ(dispatches_ - before, had ? 1u : 0u) << "op " << op;
      } else if (r < 0.85) {
        const std::size_t k = static_cast<std::size_t>(rng_.uniform_int(0, 4));
        const std::size_t before = dispatches_;
        const std::size_t n = s_.run(k);
        ASSERT_EQ(n, dispatches_ - before) << "op " << op;
        ASSERT_LE(n, k) << "op " << op;
        if (n < k) {
          ASSERT_TRUE(model_.empty()) << "op " << op;
        }
      } else {
        const SimTime t =
            scatter_ ? random_time(-2, 2'000) : random_time(-2, 8);
        const std::size_t before = dispatches_;
        const std::size_t n = s_.run_until(t);
        ASSERT_EQ(n, dispatches_ - before) << "op " << op;
        // Everything due by `t` ran, including events scheduled meanwhile.
        if (!model_.empty()) {
          ASSERT_GT(model_.begin()->first.first, t.ns()) << "op " << op;
        }
        if (model_now_ < t) model_now_ = t;
      }
      ASSERT_NO_FATAL_FAILURE(check_state(op));
    }
    // Drain what is left; the tail must follow the model too.
    s_.run();
    ASSERT_NO_FATAL_FAILURE(check_state(-1));
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(s_.events_executed(), dispatches_);
  }
};

TEST_P(SchedulerModel, DispatchOrderMatchesReferenceModel) { drive(2000); }

TEST_P(SchedulerModel, ScatteredDelaysMatchReferenceModel) {
  scatter_ = true;
  drive(6000);
  // The mode reached what it is for: the FIFO cap and loose cells.
  EXPECT_EQ(SchedulerTestPeer::fifos(s_), SchedulerTestPeer::kMaxFifos);
  EXPECT_GT(max_loose_, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerModel, ::testing::Range(1, 9));

}  // namespace
}  // namespace fhmip
