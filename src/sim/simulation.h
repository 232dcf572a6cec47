// Discrete-event simulation core.
//
// A Simulation owns a virtual clock and an event queue of (time, sequence,
// callback) entries. Events at equal times fire in schedule order, which —
// together with the seeded PRNGs — makes every run bit-reproducible.
//
// Timeouts that move (retransmission, pacing recovery, PFC pause, batch
// flush) use sim::Deadline, a re-armable one-shot timer. Each Arm() takes
// the (time, sequence) slot a fresh ScheduleAfter would have taken, but the
// Deadline keeps at most one wake in the queue: pushing a deadline later
// costs nothing until the old wake pops, and then it re-queues itself at
// the reserved slot. Wakes that do not run the callback are not counted in
// EventsProcessed(), so dispatch order and event counts are exactly those
// of one-event-per-arm scheduling with lazy cancellation. A slot can also
// be reserved with no wake at all and woken only on demand: a link
// transmitter reserves its transmit-complete slot this way and queues an
// event there only when something waits for the transmitter.
//
// Coroutine processes (sim::Task<void>) are attached with Spawn(); they
// interact with the clock via `co_await sim.Delay(ns)` and with each other
// via the primitives in sync.h. All coroutine resumptions are funneled
// through the event queue (never resumed inline), so there is no reentrancy
// and no unbounded recursion between communicating processes.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/inline_function.h"
#include "common/pool.h"
#include "common/units.h"
#include "sim/task.h"

namespace cowbird::sim {

class Simulation;

// Event callbacks live inline in the queue entry: a std::function here
// heap-allocated once per simulated event (any capture beyond 16 bytes),
// which dominated the simulator's allocator traffic.
using EventFn = InlineFunction<void()>;

// A re-armable one-shot timer with at most one queue entry.
//
// Reserve(delay) takes the queue slot (time, seq) that ScheduleAfter(delay)
// would take at that moment — it consumes the sequence number — but queues
// nothing. Wake() asks for the callback at the reserved slot; Arm(delay) is
// Reserve plus Wake. A slot that dispatch passes unwoken costs no event and
// runs nothing, and Passed() tells whether dispatch has reached it.
//
// The callback runs at the slot unless the timer is re-reserved or
// canceled first. A wake already queued at or before the slot is kept; a
// later one is dropped for a new wake at the slot. A wake that pops early
// re-queues itself at the reserved slot; one that pops unwanted does
// nothing. Neither counts as a processed event.
//
// The callback is bound once, at construction, and may re-arm its own
// Deadline. The wake points at the Deadline, so it cannot move: owners
// that live in growable containers need stable storage. The Simulation
// must outlive every Deadline; destruction drops a queued wake.
class Deadline {
 public:
  template <typename F>
  Deadline(Simulation& sim, F&& fn) : sim_(&sim), fn_(std::forward<F>(fn)) {}
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;
  ~Deadline();

  void Arm(Nanos delay) {
    Reserve(delay);
    Wake();
  }
  void Reserve(Nanos delay);
  // Requests the callback at the reserved slot, which dispatch must not
  // have passed yet.
  void Wake();
  void Cancel() { armed_ = false; }
  // True from Wake() (or Arm()) until the callback starts or Cancel().
  bool Pending() const { return armed_; }
  // True once dispatch has reached the reserved slot — while its callback
  // runs, and for an unwoken slot from the first event after it. True
  // before the first reservation.
  bool Passed() const;

 private:
  friend class Simulation;
  void PushWake();
  void OnWake(std::uint64_t wake_seq);

  Simulation* sim_;
  EventFn fn_;
  bool armed_ = false;
  Nanos when_ = -1;            // reserved slot; -1: none yet (passed)
  std::uint64_t seq_ = 0;
  PoolHandle wake_;            // queued wake's event record, if any
  Nanos wake_when_ = 0;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  Nanos Now() const { return now_; }
  // Sequence number of the event being dispatched: with Now(), its unique
  // (time, seq) queue key. Meaningful only inside an event handler.
  std::uint64_t CurrentSeq() const { return passed_seq_ - 1; }

  // Templated so the closure is constructed directly inside the pooled
  // event record (InlineFunction's converting constructor) instead of being
  // relocated through an EventFn parameter — two 64-byte moves per event on
  // the hottest path in the simulator.
  template <typename F>
  void ScheduleAt(Nanos when, F&& fn) {
    COWBIRD_CHECK(when >= now_);
    const PoolHandle event = events_.Acquire(std::forward<F>(fn), nullptr);
    queue_.push(QueueEntry{when, next_seq_++, event});
  }
  template <typename F>
  void ScheduleAfter(Nanos delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  // Runs until the event queue drains or Halt() is called.
  void Run();
  // Runs until virtual time reaches `deadline` (events exactly at the
  // deadline still fire), the queue drains, or Halt() is called.
  void RunUntil(Nanos deadline);
  void RunFor(Nanos duration) { RunUntil(now_ + duration); }
  // Stops the dispatch loop after the current event.
  void Halt() { halted_ = true; }

  // Attach a root process. It is started via the event queue at the current
  // time; its frame is owned by the simulation and destroyed either on
  // completion or, if still suspended (e.g. a server loop), at simulation
  // destruction.
  void Spawn(Task<void> task);

  // Resume a suspended coroutine through the event queue at the current time.
  void Resume(std::coroutine_handle<> h) {
    ScheduleAt(now_, [h] { h.resume(); });
  }

  struct DelayAwaiter {
    Simulation* sim;
    Nanos delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->ScheduleAfter(delay, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };

  // Suspend the calling coroutine for `delay` virtual nanoseconds.
  // Delay(0) still round-trips through the event queue, providing a
  // deterministic yield point.
  DelayAwaiter Delay(Nanos delay) {
    COWBIRD_CHECK(delay >= 0);
    return DelayAwaiter{this, delay};
  }

  std::uint64_t EventsProcessed() const { return events_processed_; }

  // Live counters of the pooled event records (Deadline wakes included),
  // for BindPoolTelemetry (harnesses bind them as pool_in_use /
  // pool_high_water / pool_exhausted_total gauges labeled by pool name).
  const PoolStats& EventPoolStats() const { return events_.stats(); }

 private:
  // The callable lives in a pooled record; the heap itself holds only
  // small POD entries, so sift-up/down moves 24 bytes instead of relocating
  // a 64-byte inline closure per swap. A Deadline's wake carries no
  // callable, only the Deadline to consult.
  struct EventRecord {
    EventFn fn;
    Deadline* deadline;  // non-null → a Deadline wake
  };

  struct QueueEntry {
    Nanos when;
    std::uint64_t seq;
    PoolHandle event;

    bool operator>(const QueueEntry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  // 4-ary min-heap on (when, seq). The key is unique per entry, so pop
  // order — and therefore the simulation — is identical to any other
  // conforming heap; the wider fan-out just halves the sift depth of the
  // hottest loop in the simulator. Entries are 24-byte PODs by design.
  class EventHeap {
   public:
    explicit EventHeap(std::size_t capacity) { v_.reserve(capacity); }
    bool empty() const { return v_.empty(); }
    const QueueEntry& top() const { return v_[0]; }

    void push(QueueEntry e) {
      std::size_t i = v_.size();
      v_.push_back(e);
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!(v_[parent] > v_[i])) break;
        std::swap(v_[parent], v_[i]);
        i = parent;
      }
    }

    void pop() {
      v_[0] = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = i * 4 + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
          if (v_[best] > v_[c]) best = c;
        }
        if (!(v_[i] > v_[best])) break;
        std::swap(v_[i], v_[best]);
        i = best;
      }
    }

   private:
    std::vector<QueueEntry> v_;
  };

  // Driver coroutine wrapping a spawned task; destroys itself on completion.
  struct RootTask {
    struct promise_type {
      Simulation* sim = nullptr;

      RootTask get_return_object() {
        return RootTask{
            std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      struct FinalAwaiter {
        bool await_ready() noexcept { return false; }
        void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
          Simulation* sim = h.promise().sim;
          sim->live_roots_.erase(h.address());
          h.destroy();
        }
        void await_resume() noexcept {}
      };
      FinalAwaiter final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() { std::terminate(); }
    };
    std::coroutine_handle<promise_type> handle;
  };

  static RootTask RunRoot(Task<void> task);

  bool PopAndDispatchOne();

  friend class Deadline;

  Nanos now_ = 0;
  bool halted_ = false;
  std::uint64_t next_seq_ = 0;
  // Dispatch position at now_: every slot (now_, seq < passed_seq_) has
  // been dispatched. Deadline::Passed() reads it for slots with no event.
  std::uint64_t passed_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  // Latest slot any Deadline ever reserved. One-event-per-arm scheduling
  // would leave a dead entry at every abandoned slot, and draining the
  // queue would advance the clock past all of them; Run() does the same.
  Nanos deadline_horizon_ = 0;
  // The heap and the record pool start at the same depth, so growing the
  // heap (an allocation on the dispatch path) waits for the pool to grow.
  static constexpr std::size_t kInitialEvents = 1024;
  EventHeap queue_{kInitialEvents};
  // Event payloads, recycled at dispatch. A record whose handle went stale
  // (a Deadline dropped its wake) leaves a dead heap entry that pops as a
  // no-op.
  Pool<EventRecord> events_{kInitialEvents, /*growable=*/true};
  // address → handle of still-live root coroutines, for teardown.
  std::unordered_map<void*, std::coroutine_handle<>> live_roots_;
};

inline Deadline::~Deadline() {
  if (wake_) sim_->events_.Release(wake_);
}

inline void Deadline::Reserve(Nanos delay) {
  COWBIRD_CHECK(delay >= 0);
  armed_ = false;
  when_ = sim_->now_ + delay;
  seq_ = sim_->next_seq_++;
  sim_->deadline_horizon_ = std::max(sim_->deadline_horizon_, when_);
}

inline void Deadline::Wake() {
  COWBIRD_DCHECK(!Passed());
  armed_ = true;
  // A queued wake at an earlier time also has the smaller seq.
  if (wake_) {
    if (wake_when_ <= when_) return;
    sim_->events_.Release(wake_);
  }
  PushWake();
}

inline bool Deadline::Passed() const {
  return when_ < sim_->now_ ||
         (when_ == sim_->now_ && seq_ < sim_->passed_seq_);
}

inline void Deadline::PushWake() {
  wake_ = sim_->events_.Acquire(EventFn{}, this);
  wake_when_ = when_;
  sim_->queue_.push(Simulation::QueueEntry{when_, seq_, wake_});
}

// The dispatcher has already released the wake's record.
inline void Deadline::OnWake(std::uint64_t wake_seq) {
  wake_ = PoolHandle{};
  if (!armed_) return;
  if (seq_ != wake_seq) {
    PushWake();
    return;
  }
  armed_ = false;
  ++sim_->events_processed_;
  fn_();
}

}  // namespace cowbird::sim
