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
#include <bit>
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
  // The callable lives in a pooled record; the queue itself holds only
  // small POD entries, so a heap sift moves 24 bytes instead of relocating
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

  // 4-ary min-heap on (when, seq): the store for events at or beyond the
  // wheel's window (GBN and PFC timeouts, probe backoff). The key is unique
  // per entry, so pop order is identical to any other conforming heap; the
  // wider fan-out halves the sift depth. Entries are 24-byte PODs by design.
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

  // The pending events, popped in (when, seq) order — a hashed timing wheel
  // (Varghese & Lauck) in front of the far-event heap. The wheel has one
  // FIFO bucket per nanosecond of [base, base + kWheelSpan), base being the
  // time of the last pop, and a two-level occupancy bitmap, so the next
  // bucket is two count-trailing-zeros away. Nearly every event the
  // datapath schedules lands a few hundred ns ahead, so most pushes append
  // to a bucket and most pops unlink a bucket head.
  //
  // Why the order is exactly (when, seq):
  //   * a bucket holds a single time, and its list is kept in seq order.
  //     Pushes take fresh seqs, so they append; the exception is a
  //     Deadline wake, which keeps the older seq of its reserved slot and
  //     is inserted in place (InsertSorted);
  //   * the heap holds only entries at or beyond base + kWheelSpan. Each
  //     moves into its bucket, heap order, in the Advance that brings it
  //     inside the window — before anything else can be pushed at its time,
  //     so its bucket is empty then.
  class EventQueue {
   public:
    static constexpr Nanos kWheelSpan = 4096;

    explicit EventQueue(std::size_t capacity)
        : tails_(kWheelSpan, kNil), far_(capacity / 4) {
      nodes_.reserve(capacity);
    }
    bool empty() const { return wheel_size_ == 0 && far_.empty(); }

    // `e.when` must be at or after the window start.
    void push(QueueEntry e) {
      if (e.when - base_ >= kWheelSpan) {
        far_.push(e);
        return;
      }
      Insert(e);
    }

    // Pops the least entry into `*out` if it is due at or before `limit`.
    bool PopAtOrBefore(Nanos limit, QueueEntry* out) {
      if (wheel_size_ == 0) {
        if (far_.empty() || far_.top().when > limit) return false;
        Advance(far_.top().when);
      }
      const auto start = static_cast<std::uint32_t>(base_ & kMask);
      const std::uint32_t slot = NextOccupied(start);
      const Nanos when = base_ + ((slot - start) & kMask);
      if (when > limit) return false;
      if (when != base_) Advance(when);
      std::uint32_t& tail = tails_[slot];
      const std::uint32_t n = nodes_[tail].next;  // the bucket's head
      const Node& node = nodes_[n];
      *out = QueueEntry{when, node.seq, node.event};
      if (n == tail) {
        tail = kNil;
        ClearOccupied(slot);
      } else {
        nodes_[tail].next = node.next;
      }
      nodes_[n].next = free_;
      free_ = n;
      --wheel_size_;
      return true;
    }

    // Moves the window start to `t`, which no queued entry precedes, and
    // brings every far entry now inside the window into its bucket.
    void Advance(Nanos t) {
      COWBIRD_DCHECK(t >= base_);
      base_ = t;
      while (!far_.empty() && far_.top().when - base_ < kWheelSpan) {
        Insert(far_.top());
        far_.pop();
      }
    }

   private:
    static constexpr Nanos kMask = kWheelSpan - 1;
    static constexpr std::uint32_t kNil = 0xFFFF'FFFFu;
    static constexpr std::size_t kWords = kWheelSpan / 64;
    static_assert(kWords == 64, "one summary word covers the bitmap");

    // The bucket's time is implied by its slot and the window start.
    struct Node {
      std::uint64_t seq;
      PoolHandle event;
      std::uint32_t next;
    };

    void Insert(const QueueEntry& e) {
      std::uint32_t n = free_;
      if (n != kNil) {
        free_ = nodes_[n].next;
        nodes_[n] = Node{e.seq, e.event, kNil};
      } else {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{e.seq, e.event, kNil});
      }
      const auto slot = static_cast<std::uint32_t>(e.when & kMask);
      std::uint32_t& tail = tails_[slot];
      if (tail == kNil) {
        nodes_[n].next = n;
        tail = n;
        words_[slot / 64] |= std::uint64_t{1} << (slot % 64);
        summary_ |= std::uint64_t{1} << (slot / 64);
      } else if (nodes_[tail].seq < e.seq) {
        nodes_[n].next = nodes_[tail].next;
        nodes_[tail].next = n;
        tail = n;
      } else {
        InsertSorted(tail, n);
      }
      ++wheel_size_;
    }

    // A Deadline wake whose older seq precedes the bucket's tail: walk from
    // the head to the first later entry. The tail stays.
    void InsertSorted(std::uint32_t tail, std::uint32_t n) {
      const std::uint64_t seq = nodes_[n].seq;
      std::uint32_t prev = tail;
      while (nodes_[nodes_[prev].next].seq < seq) prev = nodes_[prev].next;
      nodes_[n].next = nodes_[prev].next;
      nodes_[prev].next = n;
    }

    void ClearOccupied(std::uint32_t slot) {
      std::uint64_t& word = words_[slot / 64];
      word &= ~(std::uint64_t{1} << (slot % 64));
      if (word == 0) summary_ &= ~(std::uint64_t{1} << (slot / 64));
    }

    // First occupied slot at or after `start`, circularly. The wheel must
    // hold an entry.
    std::uint32_t NextOccupied(std::uint32_t start) const {
      const std::uint32_t w = start / 64;
      const std::uint32_t b = start % 64;
      if (const std::uint64_t here = words_[w] & (~std::uint64_t{0} << b)) {
        return w * 64 + static_cast<std::uint32_t>(std::countr_zero(here));
      }
      // Words after w, then (wrapping) words before w, then w's low bits.
      const std::uint64_t above = (std::uint64_t{2} << w) - 1;
      std::uint64_t words = summary_ & ~above;
      if (words == 0) words = summary_ & ((std::uint64_t{1} << w) - 1);
      const std::uint32_t word =
          words == 0 ? w : static_cast<std::uint32_t>(std::countr_zero(words));
      return word * 64 +
             static_cast<std::uint32_t>(std::countr_zero(words_[word]));
    }

    Nanos base_ = 0;
    std::size_t wheel_size_ = 0;
    std::uint64_t summary_ = 0;  // bit w: words_[w] != 0
    std::uint64_t words_[kWords] = {};
    // Each bucket is a circular list named by its tail (the tail's `next`
    // is the head), so one word per nanosecond of span.
    std::vector<std::uint32_t> tails_;
    // Bucket-list nodes, recycled through a free list threaded on `next`.
    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil;
    EventHeap far_;
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

  // Dispatches the next event if it is due at or before `limit`.
  bool PopAndDispatchOne(Nanos limit);

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
  // The queue's node storage starts at the record pool's depth, so growing
  // it (an allocation on the dispatch path) waits for the pool to grow; the
  // far heap, which holds only timeouts, starts at a quarter of that.
  static constexpr std::size_t kInitialEvents = 1024;
  EventQueue queue_{kInitialEvents};
  // Event payloads, recycled at dispatch. A record whose handle went stale
  // (a Deadline dropped its wake) leaves a dead queue entry that pops as a
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
