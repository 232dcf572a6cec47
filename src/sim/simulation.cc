#include "sim/simulation.h"

#include <limits>

namespace cowbird::sim {

Simulation::~Simulation() {
  // Destroy still-suspended root processes (server loops etc). Destroying a
  // root frame cascades: Task objects held in its frame destroy their own
  // child frames. No events are dispatched during teardown.
  // Copy first: destruction does not unregister (only final_suspend does),
  // but guard against any future re-entrancy.
  auto roots = std::move(live_roots_);
  for (auto& [addr, handle] : roots) {
    (void)addr;
    handle.destroy();
  }
}

bool Simulation::PopAndDispatchOne(Nanos limit) {
  QueueEntry entry;
  if (!queue_.PopAtOrBefore(limit, &entry)) return false;
  COWBIRD_DCHECK(entry.when >= now_);
  now_ = entry.when;
  passed_seq_ = entry.seq + 1;
  EventRecord* record = events_.TryGet(entry.event);
  if (record == nullptr) return true;  // wake dropped by its Deadline
  if (Deadline* deadline = record->deadline) {
    events_.Release(entry.event);
    deadline->OnWake(entry.seq);
    return true;
  }
  ++events_processed_;
  // Invoke in place: the pool slot address is stable even if the callback
  // schedules new events (slab growth never moves slots), so there is no
  // need to move the 64-byte closure out first. The slot is recycled after
  // the call returns.
  record->fn();
  events_.Release(entry.event);
  return true;
}

void Simulation::Run() {
  halted_ = false;
  while (!halted_ && PopAndDispatchOne(std::numeric_limits<Nanos>::max())) {
  }
  if (halted_) return;
  now_ = std::max(now_, deadline_horizon_);
  passed_seq_ = next_seq_;
  queue_.Advance(now_);
}

void Simulation::RunUntil(Nanos deadline) {
  halted_ = false;
  while (!halted_ && PopAndDispatchOne(deadline)) {
  }
  if (halted_) return;
  now_ = std::max(now_, deadline);
  // Every slot at or before the deadline counts as dispatched.
  passed_seq_ = next_seq_;
  queue_.Advance(now_);
}

Simulation::RootTask Simulation::RunRoot(Task<void> task) {
  co_await std::move(task);
}

void Simulation::Spawn(Task<void> task) {
  RootTask root = RunRoot(std::move(task));
  root.handle.promise().sim = this;
  live_roots_.emplace(root.handle.address(), root.handle);
  ScheduleAt(now_, [h = root.handle] { h.resume(); });
}

}  // namespace cowbird::sim
