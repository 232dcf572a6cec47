#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/thread.h"
#include "test_seed.h"

namespace cowbird::sim {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulation, EqualTimesFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.ScheduleAt(200, [&] { ++fired; });
  sim.RunUntil(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 150);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelableTimerDoesNotFire) {
  Simulation sim;
  int fired = 0;
  Deadline timer(sim, [&] { ++fired; });
  timer.Arm(50);
  EXPECT_TRUE(timer.Pending());
  timer.Cancel();
  EXPECT_FALSE(timer.Pending());
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.EventsProcessed(), 0u);
  // The clock still drains past the abandoned slot, as if a canceled event
  // had stayed queued there.
  EXPECT_EQ(sim.Now(), 50);
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  int value = 0;
  sim.ScheduleAt(1, [&] {
    sim.ScheduleAfter(5, [&] { value = sim.Now() == 6 ? 42 : -1; });
  });
  sim.Run();
  EXPECT_EQ(value, 42);
}

// ------------------------------------------------------------- Deadline
//
// Property: a Deadline behaves exactly like scheduling one plain event per
// Arm() and ignoring every event but the latest arm's (a generation check)
// — same callbacks at the same virtual times in the same order, same clock
// after the queue drains — while EventsProcessed() counts only callbacks
// that ran and the queue holds at most one wake per Deadline.

constexpr int kTimers = 4;

enum class StepKind { kArm, kCancel, kDestroy, kMarker };

struct Step {
  Nanos at;
  StepKind kind;
  int id;       // timer index (kMarker: marker number)
  Nanos delay;  // kArm only
};

struct Script {
  std::vector<Step> steps;
  // rearm[id][k]: delay the k-th callback of timer `id` re-arms itself
  // with, or -1 to stay disarmed.
  std::vector<std::vector<Nanos>> rearm;
  Nanos midpoint = 0;  // RunUntil() here first, then Run()

  Nanos Rearm(int id, std::size_t k) const {
    const auto& v = rearm[static_cast<std::size_t>(id)];
    return k < v.size() ? v[k] : -1;
  }
};

Script MakeScript(std::uint64_t seed) {
  Rng rng(seed);
  Script script;
  constexpr Nanos kSpan = 2000;
  for (int i = 0; i < 400; ++i) {
    Step step{static_cast<Nanos>(rng.Below(kSpan)), StepKind::kMarker, 0, 0};
    const std::uint64_t roll = rng.Below(100);
    step.id = static_cast<int>(rng.Below(kTimers));
    if (roll < 45) {
      step.kind = StepKind::kArm;
      // Delay 0 and coarse values force same-time ties with other steps.
      const Nanos coarse = static_cast<Nanos>(rng.Below(30)) * 10;
      step.delay = rng.Bernoulli(0.2) ? 0 : coarse;
    } else if (roll < 60) {
      step.kind = StepKind::kCancel;
    } else if (roll < 70) {
      step.kind = StepKind::kDestroy;
    } else {
      step.id = i;
    }
    script.steps.push_back(step);
  }
  script.rearm.resize(kTimers);
  for (auto& v : script.rearm) {
    for (int k = 0; k < 64; ++k) {
      const Nanos delay = static_cast<Nanos>(rng.Below(20)) * 10;
      v.push_back(rng.Bernoulli(0.5) ? -1 : delay);
    }
  }
  script.midpoint = static_cast<Nanos>(rng.Below(kSpan));
  return script;
}

struct Trace {
  std::vector<std::pair<Nanos, int>> log;  // (time, timer id | -1 - marker)
  std::uint64_t callbacks = 0;             // closures that ran
  Nanos end = 0;                           // clock after draining
};

// The reference: one plain event per arm, stale ones dropped on a
// generation mismatch — the scheduling Deadline replaces.
Trace RunWithPlainEvents(const Script& script) {
  Simulation sim;
  Trace trace;
  std::vector<std::uint64_t> gen(kTimers, 0);
  std::vector<bool> armed(kTimers, false);
  std::vector<std::size_t> fires(kTimers, 0);
  std::function<void(int, Nanos)> arm = [&](int id, Nanos delay) {
    armed[id] = true;
    const std::uint64_t mine = ++gen[id];
    sim.ScheduleAfter(delay, [&, id, mine] {
      if (!armed[id] || gen[id] != mine) return;
      armed[id] = false;
      trace.log.emplace_back(sim.Now(), id);
      ++trace.callbacks;
      const Nanos again = script.Rearm(id, fires[id]++);
      if (again >= 0) arm(id, again);
    });
  };
  for (const Step& step : script.steps) {
    sim.ScheduleAt(step.at, [&, step] {
      ++trace.callbacks;
      if (step.kind == StepKind::kArm) {
        arm(step.id, step.delay);
      } else if (step.kind == StepKind::kCancel) {
        armed[step.id] = false;
      } else if (step.kind == StepKind::kDestroy) {
        armed[step.id] = false;
        ++gen[step.id];
      } else {
        trace.log.emplace_back(sim.Now(), -1 - step.id);
      }
    });
  }
  sim.RunUntil(script.midpoint);
  sim.Run();
  trace.end = sim.Now();
  return trace;
}

struct DeadlineRun {
  Trace trace;
  std::uint64_t events_processed = 0;
  int later_rearms = 0;    // Arm() while pending, to a later deadline
  int earlier_rearms = 0;  // Arm() while pending, to an earlier deadline
};

DeadlineRun RunWithDeadlines(const Script& script) {
  Simulation sim;
  DeadlineRun run;
  Trace& trace = run.trace;
  std::vector<std::unique_ptr<Deadline>> timers(kTimers);
  std::vector<Nanos> due(kTimers, 0);
  std::vector<std::size_t> fires(kTimers, 0);
  std::size_t steps_started = 0;
  // Undispatched script steps (the running one included) plus at most one
  // wake per Deadline.
  const auto check_queue = [&] {
    EXPECT_LE(sim.EventPoolStats().in_use,
              script.steps.size() - steps_started + 1 + kTimers);
  };
  const auto arm = [&](int id, Nanos delay) {
    const Nanos when = sim.Now() + delay;
    if (timers[id]->Pending() && when > due[id]) ++run.later_rearms;
    if (timers[id]->Pending() && when < due[id]) ++run.earlier_rearms;
    due[id] = when;
    timers[id]->Arm(delay);
  };
  const auto ensure_timer = [&](int id) {
    if (timers[id]) return;
    timers[id] = std::make_unique<Deadline>(sim, [&, id] {
      EXPECT_FALSE(timers[id]->Pending());
      trace.log.emplace_back(sim.Now(), id);
      ++trace.callbacks;
      check_queue();
      const Nanos again = script.Rearm(id, fires[id]++);
      if (again >= 0) arm(id, again);
    });
  };
  for (const Step& step : script.steps) {
    sim.ScheduleAt(step.at, [&, step] {
      ++steps_started;
      ++trace.callbacks;
      check_queue();
      if (step.kind == StepKind::kArm) {
        ensure_timer(step.id);
        arm(step.id, step.delay);
      } else if (step.kind == StepKind::kCancel) {
        if (timers[step.id]) timers[step.id]->Cancel();
      } else if (step.kind == StepKind::kDestroy) {
        timers[step.id].reset();
      } else {
        trace.log.emplace_back(sim.Now(), -1 - step.id);
      }
    });
  }
  sim.RunUntil(script.midpoint);
  sim.Run();
  trace.end = sim.Now();
  run.events_processed = sim.EventsProcessed();
  EXPECT_EQ(sim.EventPoolStats().in_use, 0u);
  return run;
}

TEST(Deadline, MatchesOneEventPerArmOnRandomScripts) {
  const std::uint64_t base = testing::TestSeed(20231017);
  COWBIRD_SCOPED_SEED(base);
  int later = 0;
  int earlier = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    SCOPED_TRACE(::testing::Message() << "script " << i);
    const Script script = MakeScript(base + i);
    const Trace want = RunWithPlainEvents(script);
    const DeadlineRun got = RunWithDeadlines(script);
    EXPECT_EQ(got.trace.log, want.log);
    EXPECT_EQ(got.trace.callbacks, want.callbacks);
    EXPECT_EQ(got.events_processed, got.trace.callbacks);
    EXPECT_EQ(got.trace.end, want.end);
    later += got.later_rearms;
    earlier += got.earlier_rearms;
  }
  // The scripts exercised both directions of a pending re-arm.
  EXPECT_GT(later, 0);
  EXPECT_GT(earlier, 0);
}

TEST(Deadline, RearmLaterKeepsOneWake) {
  Simulation sim;
  std::vector<Nanos> fired;
  Deadline timer(sim, [&] { fired.push_back(sim.Now()); });
  timer.Arm(100);
  for (Nanos t = 10; t <= 500; t += 10) {
    sim.ScheduleAt(t, [&] { timer.Arm(100); });
  }
  while (sim.Now() < 700) {
    sim.RunFor(5);
    // The re-arm steps still queued, plus one wake at most.
    const auto steps_left =
        static_cast<std::uint64_t>(50 - std::min<Nanos>(sim.Now(), 500) / 10);
    EXPECT_LE(sim.EventPoolStats().in_use, steps_left + 1);
  }
  EXPECT_EQ(fired, (std::vector<Nanos>{600}));
  EXPECT_EQ(sim.EventsProcessed(), 50u + 1u);
}

TEST(Deadline, OwnerDestroyedWhileQueuedLeavesSimulationRunning) {
  struct Owner {
    Owner(Simulation& sim, int& fired)
        : armed(sim, [&fired] { ++fired; }),
          disarmed(sim, [&fired] { ++fired; }) {}
    Deadline armed;
    Deadline disarmed;
  };
  Simulation sim;
  int fired = 0;
  auto owner = std::make_unique<Owner>(sim, fired);
  owner->armed.Arm(100);
  owner->disarmed.Arm(50);
  owner->disarmed.Cancel();
  sim.RunUntil(10);
  EXPECT_EQ(sim.EventPoolStats().in_use, 2u);
  owner.reset();
  EXPECT_EQ(sim.EventPoolStats().in_use, 0u);
  int later = 0;
  sim.ScheduleAt(200, [&] { ++later; });
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(sim.EventsProcessed(), 1u);
  EXPECT_EQ(sim.Now(), 200);
}

TEST(Deadline, CallbackMayRearmItself) {
  Simulation sim;
  std::vector<Nanos> fired;
  std::unique_ptr<Deadline> timer;
  timer = std::make_unique<Deadline>(sim, [&] {
    fired.push_back(sim.Now());
    if (fired.size() < 3) timer->Arm(7);
  });
  timer->Arm(7);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<Nanos>{7, 14, 21}));
  EXPECT_FALSE(timer->Pending());
  EXPECT_EQ(sim.EventsProcessed(), 3u);
}

// A reserved slot takes the (time, seq) key ScheduleAfter would take but
// queues nothing: unwoken, dispatch passes it at no cost; woken before it
// passes, the callback runs at exactly that key.
TEST(Deadline, ReservedSlotRunsOnlyWhenWokenAndKeepsItsKey) {
  Simulation sim;
  std::vector<std::pair<Nanos, int>> log;
  Deadline slot(sim, [&] { log.emplace_back(sim.Now(), 0); });
  EXPECT_TRUE(slot.Passed());  // nothing reserved yet

  sim.ScheduleAt(100, [&] {
    EXPECT_FALSE(slot.Passed());
    log.emplace_back(sim.Now(), 1);
  });
  slot.Reserve(100);
  sim.ScheduleAt(100, [&] {
    EXPECT_TRUE(slot.Passed());
    log.emplace_back(sim.Now(), 2);
  });
  EXPECT_FALSE(slot.Passed());
  EXPECT_FALSE(slot.Pending());
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::pair<Nanos, int>>{{100, 1}, {100, 2}}));
  EXPECT_EQ(sim.EventsProcessed(), 2u);
  EXPECT_EQ(sim.EventPoolStats().in_use, 0u);
  EXPECT_TRUE(slot.Passed());

  log.clear();
  sim.ScheduleAt(200, [&] { log.emplace_back(sim.Now(), 1); });
  slot.Reserve(100);
  sim.ScheduleAt(200, [&] { log.emplace_back(sim.Now(), 2); });
  sim.ScheduleAt(150, [&] {
    slot.Wake();
    EXPECT_TRUE(slot.Pending());
  });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::pair<Nanos, int>>{
                     {200, 1}, {200, 0}, {200, 2}}));
  EXPECT_EQ(sim.EventsProcessed(), 2u + 4u);
}

TEST(Deadline, RunUntilPassesEverySlotAtTheDeadline) {
  Simulation sim;
  int fired = 0;
  Deadline slot(sim, [&] { ++fired; });
  slot.Reserve(50);
  sim.RunUntil(49);
  EXPECT_FALSE(slot.Passed());
  sim.RunUntil(50);
  EXPECT_TRUE(slot.Passed());
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.EventsProcessed(), 0u);
}

// ----------------------------------------------------------- EventQueue
//
// Property: the timing wheel and its far-event heap dispatch in exactly
// the order of a plain set ordered by (when, seq). Handlers schedule plain
// events and drive Deadlines at random; a mirror of the sequence counter
// gives every queued callback its key in the reference set, and each
// dispatch must be the reference's least key. Delays straddle the wheel's
// 4096 ns window and snap to a coarse grid, so far events share times
// with near ones scheduled after they move into the wheel.

struct QueueKey {
  Nanos when;
  std::uint64_t seq;
  int id;  // >= 0: plain event; < 0: timer -1 - id
  auto operator<=>(const QueueKey&) const = default;
};

class QueueScript {
 public:
  static constexpr int kTimers = 4;
  static constexpr int kBudget = 3000;  // schedules before handlers go quiet

  explicit QueueScript(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kTimers; ++i) MakeTimer(i);
  }

  // Phases of RunUntil with outside schedules between them; then either a
  // drain or destruction with events still queued.
  void Play() {
    for (int phase = 0; phase < 64; ++phase) {
      Nanos until = sim_.Now() + static_cast<Nanos>(rng_.Below(6000));
      if (rng_.Bernoulli(0.3) && !ref_.empty()) {
        // Stop just short of the window around the earliest pending event,
        // so only far events stay queued.
        until = std::max(sim_.Now(),
                         ref_.begin()->when - 4096 -
                             static_cast<Nanos>(rng_.Below(200)));
      }
      RunUntil(until);
      for (int i = 0; i < 4; ++i) Act();
    }
    if (rng_.Bernoulli(0.5)) {
      quiet_ = true;
      do {
        halted_ = false;
        sim_.Run();
      } while (halted_);
      EXPECT_TRUE(ref_.empty());
      Nanos end = last_when_;
      for (const Timer& t : timers_) end = std::max(end, t.horizon);
      EXPECT_EQ(sim_.Now(), end);
      ++drained;
    } else {
      EXPECT_FALSE(ref_.empty());
      ++abandoned;
    }
    EXPECT_EQ(sim_.EventsProcessed(), dispatched_);
  }

  int far_then_near = 0;  // near schedule at a time a far event holds
  int late_wakes = 0;     // wake behind a later same-time entry
  int only_far = 0;       // RunUntil left nothing within the window
  int boundary = 0;       // delay exactly 4095 or 4096
  int halts = 0;
  int drained = 0;
  int abandoned = 0;

 private:
  struct Timer {
    std::unique_ptr<Deadline> deadline;
    Nanos when = -1;
    std::uint64_t seq = 0;
    bool armed = false;
    Nanos horizon = 0;  // latest slot ever reserved
  };

  void MakeTimer(int i) {
    timers_[i].deadline = std::make_unique<Deadline>(sim_, [this, i] {
      Timer& t = timers_[i];
      EXPECT_TRUE(t.armed);
      EXPECT_EQ(sim_.CurrentSeq(), t.seq);
      t.armed = false;
      OnDispatch(-1 - i);
    });
  }

  void RunUntil(Nanos until) {
    halted_ = false;
    sim_.RunUntil(until);
    if (halted_) return;
    EXPECT_EQ(sim_.Now(), std::max(until, last_when_));
    EXPECT_TRUE(ref_.empty() || ref_.begin()->when > until);
    if (!ref_.empty() && ref_.begin()->when - sim_.Now() >= 4096) ++only_far;
  }

  void OnDispatch(int id) {
    ++dispatched_;
    last_when_ = sim_.Now();
    ASSERT_FALSE(ref_.empty());
    const QueueKey want = *ref_.begin();
    ref_.erase(ref_.begin());
    EXPECT_EQ((QueueKey{sim_.Now(), sim_.CurrentSeq(), id}), want);
    if (rng_.Bernoulli(0.003)) {
      sim_.Halt();
      halted_ = true;
      ++halts;
    }
    if (quiet_) return;
    const std::uint64_t actions = rng_.Below(4);
    for (std::uint64_t i = 0; i < actions; ++i) Act();
  }

  Nanos PickDelay() {
    const Nanos now = sim_.Now();
    switch (rng_.Below(8)) {
      case 0:
        return 0;
      case 1:
        return static_cast<Nanos>(rng_.Below(16));
      case 2:
        return 16 + static_cast<Nanos>(rng_.Below(497));
      case 3:
        ++boundary;
        return rng_.Bernoulli(0.5) ? 4095 : 4096;
      case 4:
        return 4097 + static_cast<Nanos>(rng_.Below(70000));
      default: {
        // A grid point up to ~6 µs out: near and far schedules collide.
        const Nanos grid = 512;
        const Nanos at =
            (now / grid + 1 + static_cast<Nanos>(rng_.Below(12))) * grid;
        return at - now;
      }
    }
  }

  void Schedule(Nanos delay) {
    const Nanos when = sim_.Now() + delay;
    const int id = next_id_++;
    if (delay < 4096) {
      auto far = far_times_.find(when);
      if (far != far_times_.end() && far->second > 0) ++far_then_near;
    } else {
      ++far_times_[when];
    }
    ref_.insert(QueueKey{when, seq_++, id});
    sim_.ScheduleAt(when, [this, id, when, delay] {
      if (delay >= 4096) --far_times_[when];
      OnDispatch(id);
    });
  }

  void Act() {
    if (budget_ <= 0) return;
    --budget_;
    const int i = static_cast<int>(rng_.Below(kTimers));
    Timer& t = timers_[i];
    switch (rng_.Below(10)) {
      case 0:
      case 1:
      case 2:
        Schedule(PickDelay());
        break;
      case 3:  // Arm
      case 4:
        Reserve(t, PickDelay());
        Wake(t);
        break;
      case 5:  // reserve only; maybe woken later
        Reserve(t, PickDelay());
        break;
      case 6:
      case 7:
        if (!t.armed && !t.deadline->Passed()) Wake(t);
        break;
      case 8:
        if (t.armed) ref_.erase(QueueKey{t.when, t.seq, -1 - i});
        t.armed = false;
        t.deadline->Cancel();
        break;
      default:
        if (t.armed) ref_.erase(QueueKey{t.when, t.seq, -1 - i});
        t.armed = false;
        MakeTimer(i);  // destroys the old Deadline with its wake queued
        break;
    }
  }

  void Reserve(Timer& t, Nanos delay) {
    const int i = static_cast<int>(&t - timers_);
    if (t.armed) ref_.erase(QueueKey{t.when, t.seq, -1 - i});
    t.armed = false;
    t.when = sim_.Now() + delay;
    t.seq = seq_++;
    t.horizon = std::max(t.horizon, t.when);
    t.deadline->Reserve(delay);
  }

  void Wake(Timer& t) {
    const int i = static_cast<int>(&t - timers_);
    const auto later = ref_.lower_bound(QueueKey{t.when, t.seq, 0});
    if (later != ref_.end() && later->when == t.when) ++late_wakes;
    t.armed = true;
    ref_.insert(QueueKey{t.when, t.seq, -1 - i});
    t.deadline->Wake();
  }

  Rng rng_;
  Simulation sim_;
  Timer timers_[kTimers];  // after sim_: destroyed first
  std::set<QueueKey> ref_;
  std::map<Nanos, int> far_times_;  // far schedules not yet dispatched
  std::uint64_t seq_ = 0;           // mirrors the simulation's counter
  std::uint64_t dispatched_ = 0;
  Nanos last_when_ = 0;
  int next_id_ = 0;
  int budget_ = kBudget;
  bool quiet_ = false;
  bool halted_ = false;
};

TEST(EventQueue, MatchesReferenceOrderOnRandomScripts) {
  const std::uint64_t base = testing::TestSeed(20261019);
  COWBIRD_SCOPED_SEED(base);
  int far_then_near = 0, late_wakes = 0, only_far = 0, boundary = 0;
  int halts = 0, drained = 0, abandoned = 0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    SCOPED_TRACE(::testing::Message() << "script " << i);
    QueueScript script(base + i);
    script.Play();
    far_then_near += script.far_then_near;
    late_wakes += script.late_wakes;
    only_far += script.only_far;
    boundary += script.boundary;
    halts += script.halts;
    drained += script.drained;
    abandoned += script.abandoned;
  }
  // The scripts reached every case the wheel treats specially.
  EXPECT_GT(far_then_near, 0);
  EXPECT_GT(late_wakes, 0);
  EXPECT_GT(only_far, 0);
  EXPECT_GT(boundary, 0);
  EXPECT_GT(halts, 0);
  EXPECT_GT(drained, 0);
  EXPECT_GT(abandoned, 0);
}

TEST(Coroutine, DelayAdvancesClock) {
  Simulation sim;
  Nanos woke_at = -1;
  sim.Spawn([](Simulation& s, Nanos& out) -> Task<void> {
    co_await s.Delay(123);
    out = s.Now();
  }(sim, woke_at));
  sim.Run();
  EXPECT_EQ(woke_at, 123);
}

TEST(Coroutine, SubtaskReturnsValue) {
  Simulation sim;
  int result = 0;

  struct Helpers {
    static Task<int> Inner(Simulation& s) {
      co_await s.Delay(10);
      co_return 7;
    }
    static Task<void> Outer(Simulation& s, int& out) {
      const int a = co_await Inner(s);
      const int b = co_await Inner(s);
      out = a + b;
    }
  };
  sim.Spawn(Helpers::Outer(sim, result));
  sim.Run();
  EXPECT_EQ(result, 14);
  EXPECT_EQ(sim.Now(), 20);
}

TEST(Coroutine, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;

  struct Helpers {
    static Task<int> Thrower(Simulation& s) {
      co_await s.Delay(1);
      throw std::runtime_error("boom");
    }
    static Task<void> Catcher(Simulation& s, bool& out) {
      try {
        (void)co_await Thrower(s);
      } catch (const std::runtime_error&) {
        out = true;
      }
    }
  };
  sim.Spawn(Helpers::Catcher(sim, caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

TEST(Coroutine, SuspendedRootIsDestroyedAtTeardown) {
  // A process suspended forever (waiting on a channel that never delivers)
  // must not leak or crash at simulation destruction.
  auto sim = std::make_unique<Simulation>();
  auto channel = std::make_unique<Channel<int>>(*sim);
  sim->Spawn([](Channel<int>& ch) -> Task<void> {
    (void)co_await ch.Receive();
  }(*channel));
  sim->Run();
  sim.reset();  // destroys the suspended frame; channel outlives it
}

TEST(Sync, OneShotEventReleasesAllWaiters) {
  Simulation sim;
  OneShotEvent event(sim);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](OneShotEvent& e, int& out) -> Task<void> {
      co_await e.Wait();
      ++out;
    }(event, released));
  }
  sim.ScheduleAt(100, [&] { event.Set(); });
  sim.Run();
  EXPECT_EQ(released, 3);
}

TEST(Sync, EventAlreadySetDoesNotBlock) {
  Simulation sim;
  OneShotEvent event(sim);
  event.Set();
  bool done = false;
  sim.Spawn([](OneShotEvent& e, bool& out) -> Task<void> {
    co_await e.Wait();
    out = true;
  }(event, done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(Sync, ChannelDeliversInFifoOrder) {
  Simulation sim;
  Channel<int> channel(sim);
  std::vector<int> received;
  sim.Spawn([](Channel<int>& ch, std::vector<int>& out) -> Task<void> {
    for (int i = 0; i < 5; ++i) out.push_back(co_await ch.Receive());
  }(channel, received));
  sim.ScheduleAt(10, [&] {
    for (int i = 0; i < 5; ++i) channel.Send(i);
  });
  sim.Run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sync, ChannelHandoffToEarlierWaiter) {
  Simulation sim;
  Channel<int> channel(sim);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  for (int w = 0; w < 2; ++w) {
    sim.Spawn([](Channel<int>& ch, std::vector<std::pair<int, int>>& out,
                 int id) -> Task<void> {
      const int v = co_await ch.Receive();
      out.emplace_back(id, v);
    }(channel, got, w));
  }
  sim.ScheduleAt(5, [&] {
    channel.Send(100);
    channel.Send(200);
  });
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  // First registered waiter gets first value.
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 100}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 200}));
}

TEST(Sync, ChannelTryReceive) {
  Simulation sim;
  Channel<int> channel(sim);
  EXPECT_FALSE(channel.TryReceive().has_value());
  channel.Send(9);
  auto v = channel.TryReceive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    sim.Spawn([](Simulation& s, Semaphore& sm, int& cur,
                 int& pk) -> Task<void> {
      co_await sm.Acquire();
      ++cur;
      pk = std::max(pk, cur);
      co_await s.Delay(10);
      --cur;
      sm.Release();
    }(sim, sem, concurrent, peak));
  }
  sim.Run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sim.Now(), 30);  // 6 jobs, 2 at a time, 10 ns each
}

TEST(Sync, CountdownLatch) {
  Simulation sim;
  CountdownLatch latch(sim, 3);
  bool released = false;
  sim.Spawn([](CountdownLatch& l, bool& out) -> Task<void> {
    co_await l.Wait();
    out = true;
  }(latch, released));
  sim.ScheduleAt(1, [&] { latch.CountDown(); });
  sim.ScheduleAt(2, [&] { latch.CountDown(); });
  sim.RunUntil(5);
  EXPECT_FALSE(released);
  latch.CountDown();
  sim.Run();
  EXPECT_TRUE(released);
}

TEST(Thread, WorkChargesCategory) {
  Simulation sim;
  Machine machine(sim, 4);
  SimThread thread(machine, "t0");
  sim.Spawn([](SimThread& t) -> Task<void> {
    co_await t.Work(100, CpuCategory::kCompute);
    co_await t.Work(50, CpuCategory::kCommunication);
    co_await t.Idle(1000);
    co_await t.Work(50, CpuCategory::kCommunication);
  }(thread));
  sim.Run();
  EXPECT_EQ(thread.TimeIn(CpuCategory::kCompute), 100);
  EXPECT_EQ(thread.TimeIn(CpuCategory::kCommunication), 100);
  EXPECT_EQ(thread.TotalBusy(), 200);
  EXPECT_DOUBLE_EQ(thread.CommunicationRatio(), 0.5);
  EXPECT_EQ(sim.Now(), 1200);
}

TEST(Thread, OversubscriptionStretchesWork) {
  Simulation sim;
  Machine machine(sim, 2);
  std::vector<std::unique_ptr<SimThread>> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(std::make_unique<SimThread>(machine, "t"));
  }
  // 4 threads on 2 cores all start 100 ns of work at t=0. The first two see
  // load ≤ cores (factor 1 for #1, 1 for #2); the 3rd and 4th see factors
  // 1.5 and 2.
  for (auto& t : threads) {
    sim.Spawn([](SimThread& thr) -> Task<void> {
      co_await thr.Work(100, CpuCategory::kCompute);
    }(*t));
  }
  sim.Run();
  EXPECT_EQ(threads[0]->TotalBusy(), 100);
  EXPECT_EQ(threads[1]->TotalBusy(), 100);
  EXPECT_EQ(threads[2]->TotalBusy(), 150);
  EXPECT_EQ(threads[3]->TotalBusy(), 200);
  EXPECT_EQ(sim.Now(), 200);
}

TEST(Thread, ZeroWorkIsFree) {
  Simulation sim;
  Machine machine(sim, 1);
  SimThread thread(machine, "t");
  sim.Spawn([](SimThread& t) -> Task<void> {
    co_await t.Work(0, CpuCategory::kCompute);
  }(thread));
  sim.Run();
  EXPECT_EQ(thread.TotalBusy(), 0);
  EXPECT_EQ(sim.Now(), 0);
}

}  // namespace
}  // namespace cowbird::sim
