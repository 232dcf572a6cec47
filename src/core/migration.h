// Live region migration: copy-then-cutover between memory servers.
//
// Moves one ClusterPool range from its source server to a destination
// server while application traffic keeps writing to the source, and cuts
// the client over to the destination. The migrator is the whole
// coordinator: a harness hands it the pool, the client, the range, the
// destination, a copy QP and two hooks, and it runs the protocol from a
// tick train it schedules up front:
//
//   1. plan        — the first tick reserves the destination extent
//                    (ClusterPool::PlanMove) and starts the copy.
//   2. copy pass   — chunked RDMA WRITEs src→dst over a real fabric QP
//                    (the copy stream contends with — and is congestion-
//                    controlled against — foreground traffic and incast).
//   3. dirty chase — a write watch on the source device marks every chunk
//                    an application RDMA WRITE lands in; marked chunks are
//                    re-copied while the engine is still serving. The dirty
//                    bit is cleared *before* the chunk is re-read, so a
//                    racing write re-marks it — never lost.
//   4. final drain — once the pass is done, a tick runs the `detach` hook
//                    (the instance stops being served; a registry handoff
//                    exports the resume snapshot and halts the engine's
//                    QPs) and ticks until no chunk is dirty and no copy is
//                    in flight. Straggler writes already on the wire still
//                    land, re-mark their chunk, and are chased first.
//   5. cutover     — inside one tick, atomic in virtual time:
//                    ClusterPool::CommitMove retargets the translation
//                    entry, the client republishes its range table, and
//                    the `attach` hook re-attaches the instance; every
//                    re-executed or new operation resolves to the
//                    destination server.
//
// Correctness leans on the same idempotent re-execution argument as the
// crash path (Section 5.3): writes the detached engine had not completed
// are re-executed against the destination; writes it had completed landed
// on the source before the detach and were dirty-chased across.
//
// The tick train is scheduled whole in the constructor: a self-rescheduling
// tick would draw its event sequence numbers at different points and could
// move a same-time tie-break that the chaos goldens and the rebalance
// baselines pin. Ticks after the cutover are no-ops.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/units.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "rdma/device.h"
#include "rdma/qp.h"
#include "telemetry/hub.h"

namespace cowbird::core {

class RegionMigrator {
 public:
  struct Config {
    Bytes chunk = KiB(64);
    int window = 4;  // outstanding copy WRITEs
    // Optional spans ("migration" track: copy/drain) + counters.
    telemetry::Hub* telemetry = nullptr;
  };

  // The harness's side of the cutover. `detach` stops serving the instance
  // and keeps its resume snapshot; returning false retries on the next
  // tick (e.g. the instance is mid crash-migration). `attach` re-attaches
  // it after the translation flip. `on_start`, optional, runs at the first
  // tick, once the move is planned.
  struct Hooks {
    std::function<bool()> detach;
    std::function<void()> attach;
    std::function<void()> on_start;
  };

  // Moves the range of `region` rooted at `vbase` to server `to`. `copy`
  // must be a connected QP pair whose side a lives on `src_device`, the
  // range's current server, and whose side b lives on `to`; the migrator
  // takes over a's send-CQ callback. Ticks run every `tick` from `start`
  // while before `end`; the migrator must outlive the simulation's run.
  RegionMigrator(ClusterPool& pool, CowbirdClient& client,
                 std::uint16_t region, std::uint64_t vbase, net::NodeId to,
                 rdma::Device& src_device, const rdma::QpPair& copy,
                 Hooks hooks, Nanos start, Nanos tick, Nanos end,
                 Config config);
  ~RegionMigrator();
  RegionMigrator(const RegionMigrator&) = delete;
  RegionMigrator& operator=(const RegionMigrator&) = delete;

  bool cut_over() const { return finished_; }
  Nanos started_at() const { return started_at_; }
  Nanos cutover_at() const { return cutover_at_; }
  std::uint64_t bytes_copied() const { return bytes_copied_; }
  std::uint64_t dirty_marks() const { return dirty_marks_; }

 private:
  // One pre-scheduled coordinator tick: advances the sequence one step.
  void Tick();
  // Plans the move, arms the write watch and kicks the copy pass.
  void Start();
  // Enters the drain phase. The serving engine must already be detached
  // (no new application writes are being *initiated*; stragglers still
  // land and are chased).
  void BeginFinalDrain();
  // Drain phase only: every chunk clean and nothing in flight — source and
  // destination hold identical bytes from here on.
  bool Synced() const;
  // Flips the translation, republishes the client's ranges, disarms the
  // write watch and re-attaches the instance.
  void Finish();

  void OnWrite(std::uint64_t addr, std::uint32_t len);
  // Posts copies as the window allows: the initial sweep, then the dirty
  // chase. The copy loop re-pumps itself off send completions; a straggler
  // write that lands while nothing is in flight marks its chunk with no
  // completion coming, so each drain tick pumps too.
  void Pump();
  void PostChunk(std::size_t index);
  std::size_t ChunkCount() const;

  ClusterPool* pool_;
  CowbirdClient* client_;
  std::uint16_t region_;
  std::uint64_t vbase_;
  net::NodeId to_;
  rdma::Device* src_device_;
  rdma::QueuePair* qp_;
  rdma::CompletionQueue* cq_;
  Hooks hooks_;
  Config config_;
  std::optional<ClusterPool::MigrationPlan> plan_;

  bool pass_done_ = false;   // initial sequential sweep finished
  bool draining_ = false;
  bool finished_ = false;
  std::size_t pass_next_ = 0;  // next chunk of the initial sweep
  int outstanding_ = 0;
  std::vector<bool> dirty_;
  Nanos started_at_ = 0;
  Nanos cutover_at_ = 0;

  std::uint64_t bytes_copied_ = 0;
  std::uint64_t dirty_marks_ = 0;

  telemetry::SpanTracer::SpanHandle copy_span_{};
  telemetry::SpanTracer::SpanHandle drain_span_{};
};

}  // namespace cowbird::core
