#include "workload/scale_workload.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
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
      for (int k = 0; k < cfg.clients; ++k) Attach(k, nullptr);
      p4_engine->Start();
    } else {
      COWBIRD_CHECK(cfg.paradigm == Paradigm::kCowbird);
      spot::SpotAgent::Config ac = cfg.agent;
      ac.costs = cfg.costs;
      ac.telemetry = cfg.telemetry;
      agent = std::make_unique<spot::SpotAgent>(bed.spot().dev,
                                                bed.spot().machine, ac);
      for (int k = 0; k < cfg.clients; ++k) Attach(k, nullptr);
      agent->Start();
    }
  }

  std::uint64_t TotalOps() const {
    std::uint64_t total = 0;
    for (const auto& per_thread : ops) {
      for (const std::uint64_t count : per_thread) total += count;
    }
    return total;
  }

  // Wires client k into the engine, resuming from `resume` when non-null:
  // the initial attach of every client and the post-cutover re-attach of
  // the migrating client 0, which gets an endpoint on both memory servers
  // because its translations resolve to either.
  void Attach(int k, const offload::InstanceProgress* resume) {
    std::vector<rdma::Device*> memories{&bed.memory(ServerFor(cfg, k)).dev};
    if (cfg.migrate && k == 0) {
      memories = {&bed.memory(0).dev, &bed.memory(1).dev};
    }
    const core::InstanceDescriptor& desc =
        clients[static_cast<std::size_t>(k)]->descriptor();
    if (p4_engine != nullptr) {
      // Every attach takes a fresh QPN block, so a re-attach cannot collide
      // with the host QPs the detached connection left behind.
      const auto conn = p4::ConnectP4Engine(*p4_engine, p4_switch_id,
                                            bed.compute(k).dev, memories,
                                            p4_qpn_base);
      p4_qpn_base += 0x20;
      p4_engine->AddInstance(desc, conn, resume);
    } else {
      const auto conn = spot::ConnectSpotEngine(bed.spot().dev,
                                                bed.compute(k).dev, memories);
      agent->AddInstance(desc, conn.to_compute, conn.compute_cq,
                         conn.to_memory, conn.memory_cqs, resume);
    }
  }

  // Stops serving client k and returns its resume snapshot. Reads it had
  // in flight are re-executed after the re-attach.
  offload::InstanceProgress Detach(int k) {
    const std::uint32_t id =
        clients[static_cast<std::size_t>(k)]->descriptor().instance_id;
    std::optional<offload::InstanceProgress> resume;
    if (p4_engine != nullptr) {
      resume = p4_engine->ExportProgress(id);
      p4_engine->RemoveInstance(id);
    } else {
      resume = agent->ExportProgress(id);
      agent->RemoveInstance(id);
    }
    COWBIRD_CHECK(resume.has_value());
    return *resume;
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

  // The hash workload's read loop, reads only and every key remote.
  static HashWorkloadConfig MakeLoopConfig(const ScaleWorkloadConfig& c) {
    HashWorkloadConfig lc;
    lc.record_size = c.record_size;
    lc.records = c.records;
    lc.local_fraction = 0;
    lc.app_compute = c.app_compute;
    lc.window = c.window;
    lc.costs = c.costs;
    return lc;
  }

  // Spawns client k's thread t. Jittered back-off: each client parks for a
  // slightly different interval, so the fleet's completion polls
  // decorrelate instead of marching as one synchronized herd
  // (deterministic — a function of the client index only).
  void SpawnDriver(int k, int t) {
    const auto i = static_cast<std::size_t>(k * cfg.threads_per_client + t);
    const Nanos idle = cfg.poll_idle + cfg.poll_jitter * k +
                       cfg.poll_jitter * static_cast<Nanos>(t) * 7;
    bed.sim.Spawn(DriveCowbird(
        loop, *threads[i], *clients[static_cast<std::size_t>(k)], t,
        cfg.seed * 7919 + static_cast<std::uint64_t>(k) * 131 +
            static_cast<std::uint64_t>(t),
        kHeapBase + t * kHeapStride, idle,
        ops[static_cast<std::size_t>(k)][static_cast<std::size_t>(t)],
        cfg.sample_latency ? &latency_traces[i] : nullptr));
  }

  ScaleWorkloadConfig cfg;
  HashWorkloadConfig loop = MakeLoopConfig(cfg);
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
  core::ClusterPool pool;
  Bytes slab_bytes = 0;
  net::NodeId p4_switch_id = 0;
  std::uint32_t p4_qpn_base = 0x800;
};

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
    for (int t = 0; t < config.threads_per_client; ++t) h.SpawnDriver(k, t);
  }

  // Client 0's live rebalance from memory server 0 to 1; its coordinator
  // ticks every kMigrateTick from migrate_start to the end of the run. The
  // phase split needs the op totals at the first tick and at the cutover.
  std::optional<offload::InstanceProgress> parked;
  std::uint64_t ops_at_migrate_start = 0;
  std::uint64_t ops_at_cutover = 0;
  std::optional<core::RegionMigrator> migrator;
  if (config.migrate) {
    core::RegionMigrator::Hooks hooks;
    hooks.detach = [&h, &parked] {
      parked = h.Detach(0);
      return true;
    };
    hooks.attach = [&h, &parked, &ops_at_cutover] {
      h.Attach(0, &*parked);
      ops_at_cutover = h.TotalOps();
    };
    hooks.on_start = [&h, &ops_at_migrate_start] {
      ops_at_migrate_start = h.TotalOps();
    };
    core::RegionMigrator::Config mc;
    mc.telemetry = config.telemetry;
    // The copy stream rides a dedicated QP src→dst, sharing the fabric —
    // and therefore contending — with the foreground read traffic.
    migrator.emplace(
        h.pool, *h.clients[0], kRegion, kPoolBase, h.bed.memory(1).nic.id(),
        h.bed.memory(0).dev,
        rdma::ConnectQueuePairs(h.bed.memory(0).dev, h.bed.memory(1).dev),
        std::move(hooks), config.migrate_start, kMigrateTick,
        config.warmup + config.measure, mc);
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

  if (migrator.has_value()) {
    result.migrations = migrator->cut_over() ? 1 : 0;
    result.migrate_bytes_copied = migrator->bytes_copied();
    result.migrate_dirty_marks = migrator->dirty_marks();
    result.migrate_started_at = migrator->started_at();
    result.migrate_cutover_at = migrator->cutover_at();
    // Phase split of the measure window, defined only when the whole
    // migration happened inside it.
    if (result.migrations == 1 && result.migrate_started_at >= t0) {
      std::uint64_t warm_total = 0;
      for (const std::uint64_t w : warm) warm_total += w;
      const Nanos t_end = t0 + elapsed;
      const auto window_mops = [](std::uint64_t lo_ops, std::uint64_t hi_ops,
                                  Nanos lo, Nanos hi) {
        return hi > lo ? Mops(hi_ops - lo_ops, hi - lo) : 0.0;
      };
      result.mops_before = window_mops(warm_total, ops_at_migrate_start,
                                       t0, result.migrate_started_at);
      result.mops_during = window_mops(ops_at_migrate_start,
                                       ops_at_cutover,
                                       result.migrate_started_at,
                                       result.migrate_cutover_at);
      result.mops_after = window_mops(ops_at_cutover,
                                      warm_total + result.ops,
                                      result.migrate_cutover_at, t_end);
      if (config.sample_latency) {
        PercentileSampler before, during, after;
        for (const auto& trace : h.latency_traces) {
          for (const auto& [completed_at, latency] : trace) {
            if (completed_at <= t0) continue;
            PercentileSampler& phase =
                completed_at <= result.migrate_started_at ? before
                : completed_at <= result.migrate_cutover_at ? during
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
