#include "workload/scale_workload.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "core/migration.h"
#include "p4/engine.h"
#include "spot/setup.h"
#include "workload/fabric.h"

namespace cowbird::workload {
namespace {

constexpr std::uint64_t kPoolBase = 0x1000'0000;
constexpr std::uint64_t kHeapBase = 0x8000'0000;
constexpr std::uint64_t kHeapStride = MiB(4);
constexpr std::uint16_t kRegion = 1;
// Physical slabs backing the migrating client's ClusterPool region live
// away from the striped per-server pools so neither registration overlaps.
constexpr std::uint64_t kSlabBase = 0x4000'0000;
// Cadence of the migration coordinator. The whole tick train is scheduled
// up front; a self-rescheduling tick would draw its event sequence numbers
// at different points and could move a same-time tie-break, and the
// committed rebalance baselines pin this exact schedule.
constexpr Nanos kMigrateTick = Micros(25);

// Incast collapses the striping: every client hits memory server 0.
int ServerFor(const ScaleWorkloadConfig& cfg, int k) {
  return cfg.incast ? 0 : k % cfg.memory_servers;
}

struct ScaleHarness {
  explicit ScaleHarness(const ScaleWorkloadConfig& config)
      : cfg(config),
        bed(RackTopology(cfg.clients, cfg.memory_servers,
                         std::max(2, cfg.threads_per_client),
                         cfg.client_groups, cfg.client_propagation,
                         cfg.trunk_propagation),
            MakeSwitchConfig(cfg), MakeNicConfig(cfg), cfg.telemetry) {
    latency_traces.resize(
        static_cast<std::size_t>(cfg.clients * cfg.threads_per_client));
    const Bytes pool_bytes = cfg.records * cfg.record_size + KiB(4);
    for (int m = 0; m < cfg.memory_servers; ++m) {
      pool_mrs.push_back(
          bed.memory(m).dev.RegisterMemory(kPoolBase, pool_bytes));
    }
    if (cfg.migrate) {
      // Client 0's region comes from an elastic ClusterPool instead of the
      // striped per-server pool: one slab per server (source + rebalance
      // destination), region carved entirely on server 0.
      COWBIRD_CHECK(cfg.memory_servers >= 2);
      slab_bytes = (pool_bytes + core::ClusterPool::kRangeAlign - 1) /
                   core::ClusterPool::kRangeAlign *
                   core::ClusterPool::kRangeAlign;
      for (int m = 0; m < 2; ++m) {
        pool.AddServer(bed.memory(m).dev, kSlabBase, slab_bytes);
      }
      if (cfg.telemetry != nullptr) {
        pool.BindTelemetry(cfg.telemetry->metrics, telemetry::Labels{});
      }
    }

    // Per-client Cowbird instances, every one offloaded through the same
    // engine (fan-in). Client k's region lives on memory server k % M.
    for (int k = 0; k < cfg.clients; ++k) {
      for (int t = 0; t < cfg.threads_per_client; ++t) {
        bed.compute(k).mem.PreFault(kHeapBase + t * kHeapStride, kHeapStride);
        threads.push_back(std::make_unique<sim::SimThread>(
            bed.compute(k).machine,
            "app-" + std::to_string(k) + "-" + std::to_string(t)));
      }
      core::CowbirdClient::Config cc;
      cc.layout.base = 0x10000;
      cc.layout.threads = cfg.threads_per_client;
      cc.layout.meta_slots = 4096;
      cc.layout.data_capacity = MiB(1);
      cc.layout.resp_capacity = MiB(1);
      cc.costs = cfg.costs;
      cc.telemetry = cfg.telemetry;
      clients.push_back(
          std::make_unique<core::CowbirdClient>(bed.compute(k).dev, cc));
      const int server = ServerFor(cfg, k);
      if (cfg.migrate && k == 0) {
        const auto region = pool.AllocateRegion(
            kRegion, kPoolBase, slab_bytes, bed.memory(0).nic.id());
        COWBIRD_CHECK(region.has_value());
        clients.back()->RegisterRegion(*region);
        clients.back()->SetRegionRanges(kRegion, pool.RangesFor(kRegion));
      } else {
        clients.back()->RegisterRegion(core::RegionInfo{
            kRegion, bed.memory(server).nic.id(), kPoolBase,
            pool_mrs[static_cast<std::size_t>(server)]->rkey, pool_bytes});
      }
      ops.emplace_back(static_cast<std::size_t>(cfg.threads_per_client), 0);
    }

    if (cfg.paradigm == Paradigm::kCowbirdP4) {
      p4::CowbirdP4Engine::Config ec;
      ec.telemetry = cfg.telemetry;
      // When the NICs run DCQCN, the switch-generated packets join the ECN
      // loop too (and the engine reflects CNPs to the memory hosts).
      ec.ecn_capable = cfg.dcqcn.enabled;
      if (cfg.p4_probe_interval > 0) {
        ec.probe_interval = cfg.p4_probe_interval;
      }
      p4_switch_id = ec.switch_node_id;
      p4_engine = std::make_unique<p4::CowbirdP4Engine>(bed.sw(), ec);
      for (int k = 0; k < cfg.clients; ++k) {
        const int server = ServerFor(cfg, k);
        const std::uint32_t qpn_base =
            0x800 + 0x20 * static_cast<std::uint32_t>(k);
        p4::P4Connection conn;
        if (cfg.migrate && k == 0) {
          // The migrating instance needs an endpoint pair on both servers:
          // post-cutover translations resolve to the destination.
          rdma::Device* memories[] = {&bed.memory(0).dev, &bed.memory(1).dev};
          conn = p4::ConnectP4Engine(*p4_engine, ec.switch_node_id,
                                     bed.compute(0).dev, memories, qpn_base);
        } else {
          conn = p4::ConnectP4Engine(*p4_engine, ec.switch_node_id,
                                     bed.compute(k).dev,
                                     bed.memory(server).dev, qpn_base);
        }
        p4_engine->AddInstance(clients[static_cast<std::size_t>(k)]
                                   ->descriptor(),
                               conn);
      }
      reattach_qpn_base = 0x800 + 0x20 * static_cast<std::uint32_t>(
                                             cfg.clients);
      p4_engine->Start();
    } else {
      COWBIRD_CHECK(cfg.paradigm == Paradigm::kCowbird);
      spot::SpotAgent::Config ac = cfg.agent;
      ac.costs = cfg.costs;
      ac.telemetry = cfg.telemetry;
      agent = std::make_unique<spot::SpotAgent>(bed.spot().dev,
                                                bed.spot().machine, ac);
      for (int k = 0; k < cfg.clients; ++k) {
        const int server = ServerFor(cfg, k);
        std::vector<rdma::Device*> memories;
        if (cfg.migrate && k == 0) {
          memories = {&bed.memory(0).dev, &bed.memory(1).dev};
        } else {
          memories = {&bed.memory(server).dev};
        }
        auto conn = spot::ConnectSpotEngine(bed.spot().dev,
                                            bed.compute(k).dev, memories);
        agent->AddInstance(clients[static_cast<std::size_t>(k)]
                               ->descriptor(),
                           conn.to_compute, conn.compute_cq, conn.to_memory,
                           conn.memory_cqs);
      }
      agent->Start();
    }

    if (cfg.migrate) {
      // The copy stream rides a dedicated QP src→dst, sharing the fabric —
      // and therefore contending — with the foreground read traffic.
      migrate_qp =
          rdma::ConnectQueuePairs(bed.memory(0).dev, bed.memory(1).dev);
    }
  }

  std::uint64_t TotalOps() const {
    std::uint64_t total = 0;
    for (const auto& per_thread : ops) {
      for (const std::uint64_t count : per_thread) total += count;
    }
    return total;
  }

  // One pre-scheduled coordinator tick: drives the copy-then-cutover state
  // machine for client 0's region. The cutover itself — translation flip,
  // client range republish, engine re-attach — happens inside a single
  // tick, atomic in virtual time.
  void MigrationTick(Nanos now) {
    switch (migration_stage) {
      case MigrationStage::kArmed: {
        migrate_started_at = now;
        ops_at_migrate_start = TotalOps();
        migrate_plan =
            pool.PlanMove(kRegion, kPoolBase, bed.memory(1).nic.id());
        COWBIRD_CHECK(migrate_plan.has_value());
        core::RegionMigrator::Config mc;
        mc.chunk = cfg.migrate_chunk;
        mc.window = cfg.migrate_window;
        mc.telemetry = cfg.telemetry;
        migrator = std::make_unique<core::RegionMigrator>(
            bed.memory(0).dev, *migrate_qp.a, *migrate_qp.a_send_cq,
            *migrate_plan, mc);
        migrator->Start();
        migration_stage = MigrationStage::kCopying;
        break;
      }
      case MigrationStage::kCopying: {
        if (!migrator->ReadyForCutover()) break;
        // Detach: export the resume snapshot and stop serving client 0.
        // Reads it had in flight are re-executed after the re-attach.
        const std::uint32_t id = clients[0]->descriptor().instance_id;
        if (p4_engine != nullptr) {
          migrate_resume = p4_engine->ExportProgress(id);
          p4_engine->RemoveInstance(id);
        } else {
          migrate_resume = agent->ExportProgress(id);
          agent->RemoveInstance(id);
        }
        COWBIRD_CHECK(migrate_resume.has_value());
        migrator->BeginFinalDrain();
        migration_stage = MigrationStage::kDraining;
        break;
      }
      case MigrationStage::kDraining: {
        migrator->Nudge();
        if (!migrator->Synced()) break;
        pool.CommitMove(*migrate_plan);
        clients[0]->SetRegionRanges(kRegion, pool.RangesFor(kRegion));
        migrator->Finish();
        rdma::Device* memories[] = {&bed.memory(0).dev, &bed.memory(1).dev};
        if (p4_engine != nullptr) {
          const auto conn = p4::ConnectP4Engine(
              *p4_engine, p4_switch_id, bed.compute(0).dev, memories,
              reattach_qpn_base);
          p4_engine->AddInstance(clients[0]->descriptor(), conn,
                                 &*migrate_resume);
        } else {
          const auto conn = spot::ConnectSpotEngine(bed.spot().dev,
                                                    bed.compute(0).dev,
                                                    memories);
          agent->AddInstance(clients[0]->descriptor(), conn.to_compute,
                             conn.compute_cq, conn.to_memory,
                             conn.memory_cqs, &*migrate_resume);
        }
        migrate_cutover_at = now;
        ops_at_cutover = TotalOps();
        ++migrations;
        migration_stage = MigrationStage::kDone;
        break;
      }
      case MigrationStage::kDone:
        break;
    }
  }

  static net::Switch::Config MakeSwitchConfig(const ScaleWorkloadConfig& c) {
    net::Switch::Config sc = DefaultSwitchConfig();
    sc.egress_queue_capacity = c.egress_queue_capacity;
    sc.ecn_threshold = c.ecn_threshold;
    sc.pfc_enabled = c.pfc;
    return sc;
  }

  static rdma::NicConfig MakeNicConfig(const ScaleWorkloadConfig& c) {
    rdma::NicConfig nc;
    nc.dcqcn = c.dcqcn;
    nc.retransmit_timeout = c.retransmit_timeout;
    return nc;
  }

  sim::SimThread& ThreadFor(int k, int t) {
    return *threads[static_cast<std::size_t>(k * cfg.threads_per_client + t)];
  }

  std::vector<std::pair<Nanos, Nanos>>& TraceFor(int k, int t) {
    return latency_traces[static_cast<std::size_t>(
        k * cfg.threads_per_client + t)];
  }

  ScaleWorkloadConfig cfg;
  Fabric bed;
  std::vector<const rdma::MemoryRegion*> pool_mrs;
  std::vector<std::unique_ptr<core::CowbirdClient>> clients;
  std::unique_ptr<spot::SpotAgent> agent;
  std::unique_ptr<p4::CowbirdP4Engine> p4_engine;
  std::vector<std::unique_ptr<sim::SimThread>> threads;
  std::vector<std::vector<std::uint64_t>> ops;  // [client][thread]
  // One latency trace per (client, thread): (completion time, latency)
  // pairs, recorded only when cfg.sample_latency. Traces merge in fixed
  // (k, t) order after the run.
  std::vector<std::vector<std::pair<Nanos, Nanos>>> latency_traces;

  // Live-rebalance state (untouched unless cfg.migrate).
  enum class MigrationStage { kArmed, kCopying, kDraining, kDone };
  core::ClusterPool pool;
  Bytes slab_bytes = 0;
  net::NodeId p4_switch_id = 0;
  std::uint32_t reattach_qpn_base = 0;
  rdma::QpPair migrate_qp;
  std::optional<core::ClusterPool::MigrationPlan> migrate_plan;
  std::unique_ptr<core::RegionMigrator> migrator;
  std::optional<offload::InstanceProgress> migrate_resume;
  MigrationStage migration_stage = MigrationStage::kArmed;
  std::uint64_t migrations = 0;
  Nanos migrate_started_at = 0;
  Nanos migrate_cutover_at = 0;
  std::uint64_t ops_at_migrate_start = 0;
  std::uint64_t ops_at_cutover = 0;
};

// The async read loop of the hash workload (DriveCowbird), reads only —
// issue up to `window`, then harvest. Wiring is per (client, thread).
sim::Task<void> DriveClient(ScaleHarness& h, int k, int t) {
  sim::SimThread& thread = h.ThreadFor(k, t);
  auto& ctx = h.clients[static_cast<std::size_t>(k)]->thread(t);
  Rng rng(h.cfg.seed * 7919 + static_cast<std::uint64_t>(k) * 131 +
          static_cast<std::uint64_t>(t));
  const core::PollId poll = ctx.PollCreate();
  std::vector<core::ReqId> done;
  done.reserve(static_cast<std::size_t>(h.cfg.window));
  std::uint64_t& counter =
      h.ops[static_cast<std::size_t>(k)][static_cast<std::size_t>(t)];
  // Opt-in latency bookkeeping. It draws no RNG values and charges no
  // simulated time, so op streams match a non-sampling run exactly.
  const bool sample = h.cfg.sample_latency;
  std::unordered_map<std::uint64_t, Nanos> issued_at;
  auto& trace = h.TraceFor(k, t);
  // Jittered back-off: each client parks for a slightly different interval,
  // so the fleet's completion polls decorrelate instead of marching as one
  // synchronized herd (deterministic — a function of the client index only).
  const Nanos idle = h.cfg.poll_idle +
                     h.cfg.poll_jitter * static_cast<Nanos>(k) +
                     h.cfg.poll_jitter * static_cast<Nanos>(t) * 7;
  int outstanding = 0;
  for (;;) {
    if (outstanding < h.cfg.window) {
      const std::uint64_t key = rng.Below(h.cfg.records);
      co_await thread.Work(h.cfg.app_compute, sim::CpuCategory::kCompute);
      const std::uint64_t slot =
          rng.Below(static_cast<std::uint64_t>(h.cfg.window));
      auto id = co_await ctx.AsyncRead(
          thread, kRegion, key * h.cfg.record_size,
          kHeapBase + t * kHeapStride + slot * h.cfg.record_size,
          static_cast<std::uint32_t>(h.cfg.record_size));
      if (id.has_value()) {
        ctx.PollAdd(poll, *id);
        if (sample) issued_at[id->value()] = thread.simulation().Now();
        ++outstanding;
        continue;
      }
    }
    co_await ctx.PollWait(thread, poll, done, h.cfg.window, 0);
    if (done.empty()) {
      co_await thread.Idle(idle);
      continue;
    }
    if (sample) {
      const Nanos now = thread.simulation().Now();
      for (const core::ReqId id : done) {
        const auto it = issued_at.find(id.value());
        if (it == issued_at.end()) continue;
        trace.emplace_back(now, now - it->second);
        issued_at.erase(it);
      }
    }
    for (std::size_t i = 0; i < done.size(); ++i) {
      co_await thread.Work(h.cfg.costs.CopyCost(h.cfg.record_size),
                           sim::CpuCategory::kCompute);
      ++counter;
    }
    outstanding -= static_cast<int>(done.size());
  }
}

std::vector<std::uint64_t> PerClientOps(const ScaleHarness& h) {
  std::vector<std::uint64_t> totals;
  totals.reserve(static_cast<std::size_t>(h.cfg.clients));
  for (const auto& per_thread : h.ops) {
    std::uint64_t total = 0;
    for (const std::uint64_t count : per_thread) total += count;
    totals.push_back(total);
  }
  return totals;
}

}  // namespace

ScaleWorkloadResult RunScaleWorkload(const ScaleWorkloadConfig& config) {
  COWBIRD_CHECK(config.clients >= 1);
  COWBIRD_CHECK(config.memory_servers >= 1);
  ScaleHarness h(config);
  sim::Simulation& sim = h.bed.sim;
  for (int k = 0; k < config.clients; ++k) {
    for (int t = 0; t < config.threads_per_client; ++t) {
      sim.Spawn(DriveClient(h, k, t));
    }
  }

  if (config.migrate) {
    // The pre-scheduled coordinator tick train (see kMigrateTick): one tick
    // every kMigrateTick from migrate_start to the end of the run.
    for (Nanos when = config.migrate_start;
         when < config.warmup + config.measure; when += kMigrateTick) {
      sim.ScheduleAt(when, [&h, when] { h.MigrationTick(when); });
    }
  }

  sim.RunFor(config.warmup);
  const std::vector<std::uint64_t> warm = PerClientOps(h);
  const Nanos t0 = sim.Now();
  const std::uint64_t events0 = sim.EventsProcessed();
  sim.RunFor(config.measure);
  const Nanos elapsed = sim.Now() - t0;

  ScaleWorkloadResult result;
  result.client_ops = PerClientOps(h);
  for (int k = 0; k < config.clients; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    result.client_ops[kk] -= warm[kk];
    result.ops += result.client_ops[kk];
  }
  result.sim_events = sim.EventsProcessed() - events0;
  result.elapsed = elapsed;
  result.mops = Mops(result.ops, elapsed);

  if (config.sample_latency) {
    // Merge traces in fixed (client, thread) order and keep only ops that
    // completed inside the measure window.
    PercentileSampler sampler;
    for (const auto& trace : h.latency_traces) {
      for (const auto& [completed_at, latency] : trace) {
        if (completed_at <= t0) continue;
        sampler.Add(static_cast<double>(latency));
      }
    }
    result.latency_samples = sampler.count();
    if (sampler.count() > 0) {
      result.p50_latency = static_cast<Nanos>(sampler.Median());
      result.p99_latency = static_cast<Nanos>(sampler.P99());
    }
  }

  if (config.migrate) {
    result.migrations = h.migrations;
    if (h.migrator != nullptr) {
      result.migrate_bytes_copied = h.migrator->bytes_copied();
      result.migrate_dirty_marks = h.migrator->dirty_marks();
    }
    result.migrate_started_at = h.migrate_started_at;
    result.migrate_cutover_at = h.migrate_cutover_at;
    // Phase split of the measure window, defined only when the whole
    // migration happened inside it.
    if (h.migrations == 1 && h.migrate_started_at >= t0) {
      std::uint64_t warm_total = 0;
      for (const std::uint64_t w : warm) warm_total += w;
      const Nanos t_end = t0 + elapsed;
      const auto window_mops = [](std::uint64_t lo_ops, std::uint64_t hi_ops,
                                  Nanos lo, Nanos hi) {
        return hi > lo ? Mops(hi_ops - lo_ops, hi - lo) : 0.0;
      };
      result.mops_before = window_mops(warm_total, h.ops_at_migrate_start,
                                       t0, h.migrate_started_at);
      result.mops_during = window_mops(h.ops_at_migrate_start,
                                       h.ops_at_cutover,
                                       h.migrate_started_at,
                                       h.migrate_cutover_at);
      result.mops_after = window_mops(h.ops_at_cutover,
                                      warm_total + result.ops,
                                      h.migrate_cutover_at, t_end);
      if (config.sample_latency) {
        PercentileSampler before, during, after;
        for (const auto& trace : h.latency_traces) {
          for (const auto& [completed_at, latency] : trace) {
            if (completed_at <= t0) continue;
            PercentileSampler& phase =
                completed_at <= h.migrate_started_at ? before
                : completed_at <= h.migrate_cutover_at ? during
                                                       : after;
            phase.Add(static_cast<double>(latency));
          }
        }
        if (before.count() > 0) {
          result.p99_before = static_cast<Nanos>(before.P99());
        }
        if (during.count() > 0) {
          result.p99_during = static_cast<Nanos>(during.P99());
        }
        if (after.count() > 0) {
          result.p99_after = static_cast<Nanos>(after.P99());
        }
      }
    }
  }

  result.switch_drops = h.bed.switch_drops();
  result.ecn_marked = h.bed.ecn_marked();
  result.pfc_pauses = h.bed.pfc_pauses();
  result.retransmissions = h.bed.retransmissions();
  result.cnps = h.bed.cnps();

  if (config.telemetry != nullptr) {
    result.telemetry = config.telemetry->metrics.TakeSnapshot();
  }
  return result;
}

}  // namespace cowbird::workload
