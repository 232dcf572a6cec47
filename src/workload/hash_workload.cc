#include "workload/hash_workload.h"

#include "net/flow.h"

#include <deque>
#include <memory>
#include <vector>

#include "baselines/aifm.h"
#include "baselines/onesided.h"
#include "baselines/twosided.h"
#include "common/check.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/client.h"
#include "p4/engine.h"
#include "spot/setup.h"
#include "workload/fabric.h"

namespace cowbird::workload {

const char* ParadigmName(Paradigm p) {
  switch (p) {
    case Paradigm::kLocalMemory: return "local-memory";
    case Paradigm::kTwoSidedSync: return "two-sided-sync";
    case Paradigm::kOneSidedSync: return "one-sided-sync";
    case Paradigm::kOneSidedAsync: return "one-sided-async";
    case Paradigm::kCowbirdNoBatch: return "cowbird-nobatch";
    case Paradigm::kCowbird: return "cowbird";
    case Paradigm::kCowbirdP4: return "cowbird-p4";
    case Paradigm::kAifm: return "aifm";
  }
  return "unknown";
}

namespace {

constexpr std::uint64_t kPoolBase = 0x1000'0000;
constexpr std::uint64_t kHeapBase = 0x8000'0000;
constexpr std::uint64_t kHeapStride = MiB(4);
constexpr std::uint16_t kRegion = 1;
// The hash loop's back-off when a completion poll finds nothing.
constexpr Nanos kPollIdle = 300;

std::uint64_t LocalKeys(const HashWorkloadConfig& cfg) {
  return static_cast<std::uint64_t>(cfg.local_fraction *
                                    static_cast<double>(cfg.records));
}

struct Harness {
  explicit Harness(const HashWorkloadConfig& config,
                   BitRate compute_uplink = BitRate::Gbps(100))
      : cfg(config),
        bed(Section7Topology(compute_uplink), DefaultSwitchConfig(), {},
            config.telemetry) {
    pool_mr = bed.memory().dev.RegisterMemory(
        kPoolBase, cfg.records * cfg.record_size + KiB(4));
    // Registration mapped the record pool; map the per-thread delivery
    // windows too, so no write on the measured datapath maps memory. The
    // kernel still backs each page on its first touch.
    for (int t = 0; t < cfg.threads; ++t) {
      bed.compute().mem.PreFault(kHeapBase + t * kHeapStride, kHeapStride);
    }
    for (int t = 0; t < cfg.threads; ++t) {
      threads.push_back(
          std::make_unique<sim::SimThread>(bed.compute().machine,
                                           "app-" + std::to_string(t)));
      ops.push_back(0);
    }

    switch (cfg.paradigm) {
      case Paradigm::kLocalMemory:
        break;
      case Paradigm::kAifm:
        aifm = std::make_unique<baselines::AifmModel>(
            bed.sim, baselines::AifmModel::Config{});
        break;
      case Paradigm::kTwoSidedSync: {
        server = std::make_unique<baselines::TwoSidedServer>(
            bed.memory().dev, bed.memory().machine, cfg.costs);
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(bed.compute().dev,
                                              bed.memory().dev);
          server->Serve(pair.b, pair.b_recv_cq, t);
          rpc_clients.push_back(std::make_unique<baselines::TwoSidedClient>(
              bed.compute().dev, pair.a, pair.a_recv_cq, cfg.costs, t));
        }
        break;
      }
      case Paradigm::kOneSidedSync:
      case Paradigm::kOneSidedAsync: {
        for (int t = 0; t < cfg.threads; ++t) {
          auto pair = rdma::ConnectQueuePairs(bed.compute().dev,
                                              bed.memory().dev);
          baselines::OneSidedEndpoint ep{pair.a, pair.a_send_cq,
                                         pool_mr->rkey};
          endpoints.push_back(ep);
          pipelines.push_back(std::make_unique<baselines::AsyncPipeline>(
              ep, cfg.costs, cfg.window));
        }
        break;
      }
      case Paradigm::kCowbirdNoBatch:
      case Paradigm::kCowbird:
      case Paradigm::kCowbirdP4: {
        core::CowbirdClient::Config cc;
        cc.layout.base = 0x10000;
        cc.layout.threads = cfg.threads;
        cc.layout.meta_slots = 4096;
        cc.layout.data_capacity = MiB(1);
        cc.layout.resp_capacity = MiB(1);
        cc.costs = cfg.costs;
        cc.telemetry = cfg.telemetry;
        client = std::make_unique<core::CowbirdClient>(bed.compute().dev, cc);
        client->RegisterRegion(core::RegionInfo{
            kRegion, kMemoryId, kPoolBase, pool_mr->rkey,
            cfg.records * cfg.record_size + KiB(4)});
        if (cfg.paradigm == Paradigm::kCowbirdP4) {
          p4::CowbirdP4Engine::Config ec;
          ec.telemetry = cfg.telemetry;
          p4_engine = std::make_unique<p4::CowbirdP4Engine>(bed.sw(), ec);
          auto conn = p4::ConnectP4Engine(*p4_engine, ec.switch_node_id,
                                          bed.compute().dev, bed.memory().dev,
                                          0x800);
          p4_engine->AddInstance(client->descriptor(), conn);
          p4_engine->Start();
          break;
        }
        spot::SpotAgent::Config ac = cfg.agent;
        ac.costs = cfg.costs;
        ac.telemetry = cfg.telemetry;
        if (cfg.paradigm == Paradigm::kCowbirdNoBatch) ac.batch_size = 1;
        agent = std::make_unique<spot::SpotAgent>(bed.spot().dev,
                                                  bed.spot().machine, ac);
        rdma::Device* memories[] = {&bed.memory().dev};
        auto conn = spot::ConnectSpotEngine(bed.spot().dev, bed.compute().dev,
                                            memories);
        agent->AddInstance(client->descriptor(), conn.to_compute,
                           conn.compute_cq, conn.to_memory, conn.memory_cqs);
        agent->Start();
        break;
      }
    }

    if (cfg.loss_rate > 0) {
      net::Link* lossy[] = {&bed.compute().egress(), &bed.memory().egress(),
                            &bed.spot().egress()};
      // One shared stream drawn in delivery order.
      loss_rng = std::make_unique<Rng>(cfg.seed * 104729 + 1);
      auto filter = [this](const net::Packet& p) {
        return rdma::LooksLikeRdma(p) && loss_rng->Bernoulli(cfg.loss_rate);
      };
      for (net::Link* link : lossy) link->set_drop_filter(filter);
    }
  }

  std::uint64_t HeapFor(int t) const { return kHeapBase + t * kHeapStride; }

  HashWorkloadConfig cfg;
  Fabric bed;
  const rdma::MemoryRegion* pool_mr = nullptr;
  std::unique_ptr<core::CowbirdClient> client;
  std::unique_ptr<spot::SpotAgent> agent;
  std::unique_ptr<p4::CowbirdP4Engine> p4_engine;
  std::unique_ptr<baselines::TwoSidedServer> server;
  std::unique_ptr<baselines::AifmModel> aifm;
  std::unique_ptr<Rng> loss_rng;
  std::vector<std::unique_ptr<sim::SimThread>> threads;
  std::vector<std::unique_ptr<baselines::TwoSidedClient>> rpc_clients;
  std::vector<std::unique_ptr<baselines::AsyncPipeline>> pipelines;
  std::vector<baselines::OneSidedEndpoint> endpoints;
  std::vector<std::uint64_t> ops;
};

// Per-operation application work common to all paradigms.
sim::Task<void> AppProbeWork(Harness& h, sim::SimThread& thread) {
  co_await thread.Work(h.cfg.app_compute, sim::CpuCategory::kCompute);
}
sim::Task<void> AppConsumeWork(Harness& h, sim::SimThread& thread) {
  co_await thread.Work(h.cfg.costs.CopyCost(h.cfg.record_size),
                       sim::CpuCategory::kCompute);
}
sim::Task<void> LocalAccessWork(Harness& h, sim::SimThread& thread) {
  co_await thread.Work(
      h.cfg.costs.local_access + h.cfg.costs.CopyCost(h.cfg.record_size),
      sim::CpuCategory::kCompute);
}

sim::Task<void> DriveSync(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  Rng rng(h.cfg.seed * 7919 + t);
  const std::uint64_t local_keys = LocalKeys(h.cfg);
  const std::uint64_t dest = h.HeapFor(t);
  for (;;) {
    const std::uint64_t key = rng.Below(h.cfg.records);
    co_await AppProbeWork(h, thread);
    if (key < local_keys) {
      co_await LocalAccessWork(h, thread);
    } else {
      const std::uint64_t remote = kPoolBase + key * h.cfg.record_size;
      switch (h.cfg.paradigm) {
        case Paradigm::kOneSidedSync:
          co_await baselines::SyncRead(
              thread, h.cfg.costs, h.endpoints[t], remote, dest,
              static_cast<std::uint32_t>(h.cfg.record_size));
          break;
        case Paradigm::kTwoSidedSync:
          co_await h.rpc_clients[t]->Read(
              thread, remote, dest,
              static_cast<std::uint32_t>(h.cfg.record_size));
          break;
        case Paradigm::kAifm:
          co_await h.aifm->RemoteGet(
              thread, static_cast<std::uint32_t>(h.cfg.record_size));
          break;
        default:
          COWBIRD_CHECK(false);
      }
      co_await AppConsumeWork(h, thread);
    }
    ++h.ops[t];
  }
}

sim::Task<void> DriveLocal(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  Rng rng(h.cfg.seed * 7919 + t);
  for (;;) {
    (void)rng.Below(h.cfg.records);
    co_await AppProbeWork(h, thread);
    co_await LocalAccessWork(h, thread);
    ++h.ops[t];
  }
}

sim::Task<void> DriveOneSidedAsync(Harness& h, int t) {
  sim::SimThread& thread = *h.threads[t];
  baselines::AsyncPipeline& pipeline = *h.pipelines[t];
  Rng rng(h.cfg.seed * 7919 + t);
  const std::uint64_t local_keys = LocalKeys(h.cfg);
  for (;;) {
    if (pipeline.CanIssue()) {
      const std::uint64_t key = rng.Below(h.cfg.records);
      co_await AppProbeWork(h, thread);
      if (key < local_keys) {
        co_await LocalAccessWork(h, thread);
        ++h.ops[t];
        continue;
      }
      const std::uint64_t slot = rng.Below(
          static_cast<std::uint64_t>(h.cfg.window));
      co_await pipeline.IssueRead(
          thread, kPoolBase + key * h.cfg.record_size,
          h.HeapFor(t) + slot * h.cfg.record_size,
          static_cast<std::uint32_t>(h.cfg.record_size));
      continue;
    }
    const auto cqe = co_await pipeline.Poll(thread);
    if (cqe.has_value()) {
      co_await AppConsumeWork(h, thread);
      ++h.ops[t];
    }
  }
}

void SpawnDrivers(Harness& h) {
  for (int t = 0; t < h.cfg.threads; ++t) {
    switch (h.cfg.paradigm) {
      case Paradigm::kLocalMemory:
        h.bed.sim.Spawn(DriveLocal(h, t));
        break;
      case Paradigm::kOneSidedSync:
      case Paradigm::kTwoSidedSync:
      case Paradigm::kAifm:
        h.bed.sim.Spawn(DriveSync(h, t));
        break;
      case Paradigm::kOneSidedAsync:
        h.bed.sim.Spawn(DriveOneSidedAsync(h, t));
        break;
      case Paradigm::kCowbird:
      case Paradigm::kCowbirdNoBatch:
      case Paradigm::kCowbirdP4:
        h.bed.sim.Spawn(DriveCowbird(h.cfg, *h.threads[t], *h.client, t,
                                     h.cfg.seed * 7919 + t, h.HeapFor(t),
                                     kPollIdle, h.ops[t]));
        break;
    }
  }
}

struct CpuSnapshot {
  Nanos compute = 0;
  Nanos comm = 0;
  Nanos agent_busy = 0;
  std::uint64_t ops = 0;
};

CpuSnapshot Snapshot(const Harness& h) {
  CpuSnapshot s;
  for (int t = 0; t < h.cfg.threads; ++t) {
    s.compute += h.threads[t]->TimeIn(sim::CpuCategory::kCompute);
    s.comm += h.threads[t]->TimeIn(sim::CpuCategory::kCommunication);
    s.ops += h.ops[t];
  }
  if (h.agent) s.agent_busy = h.agent->agent_thread().TotalBusy();
  return s;
}

}  // namespace

sim::Task<void> DriveCowbird(const HashWorkloadConfig& cfg,
                             sim::SimThread& thread,
                             core::CowbirdClient& client, int t,
                             std::uint64_t rng_seed, std::uint64_t heap,
                             Nanos idle, std::uint64_t& ops,
                             std::vector<std::pair<Nanos, Nanos>>* latency) {
  auto& ctx = client.thread(t);
  Rng rng(rng_seed);
  const std::uint64_t local_keys = LocalKeys(cfg);
  const auto len = static_cast<std::uint32_t>(cfg.record_size);
  const core::PollId poll = ctx.PollCreate();
  // Responses array owned by the application, Table-2 style: reused across
  // poll_wait calls so the steady-state harvest loop never allocates.
  std::vector<core::ReqId> done;
  done.reserve(static_cast<std::size_t>(cfg.window));
  // (read seq, issue time) of every sampled read in flight. A thread's
  // reads retire in issue order, so a FIFO sized to the window is enough.
  FixedDeque<std::pair<std::uint64_t, Nanos>> issued;
  if (latency != nullptr) {
    COWBIRD_CHECK(cfg.write_fraction == 0);
    issued.Reserve(static_cast<std::size_t>(cfg.window));
  }
  int outstanding = 0;
  for (;;) {
    if (outstanding < cfg.window) {
      const std::uint64_t key = rng.Below(cfg.records);
      co_await thread.Work(cfg.app_compute, sim::CpuCategory::kCompute);
      if (key < local_keys) {
        co_await thread.Work(
            cfg.costs.local_access + cfg.costs.CopyCost(cfg.record_size),
            sim::CpuCategory::kCompute);
        ++ops;
        continue;
      }
      const std::uint64_t slot =
          rng.Below(static_cast<std::uint64_t>(cfg.window));
      const std::uint64_t local = heap + slot * cfg.record_size;
      std::optional<core::ReqId> id;
      if (cfg.write_fraction > 0 && rng.NextDouble() < cfg.write_fraction) {
        id = co_await ctx.AsyncWrite(thread, kRegion, local,
                                     key * cfg.record_size, len);
      } else {
        id = co_await ctx.AsyncRead(thread, kRegion, key * cfg.record_size,
                                    local, len);
      }
      if (id.has_value()) {
        ctx.PollAdd(poll, *id);
        if (latency != nullptr) {
          issued.push_back({id->seq(), thread.simulation().Now()});
        }
        ++outstanding;
        continue;
      }
      // Rings full: fall through to harvest completions.
    }
    co_await ctx.PollWait(thread, poll, done, cfg.window, 0);
    if (done.empty()) {
      co_await thread.Idle(idle);
      continue;
    }
    if (latency != nullptr) {
      const Nanos now = thread.simulation().Now();
      for (const core::ReqId id : done) {
        COWBIRD_CHECK(!issued.empty() && issued.front().first == id.seq());
        latency->emplace_back(now, now - issued.front().second);
        issued.pop_front();
      }
    }
    for (std::size_t i = 0; i < done.size(); ++i) {
      co_await thread.Work(cfg.costs.CopyCost(cfg.record_size),
                           sim::CpuCategory::kCompute);
      ++ops;
    }
    outstanding -= static_cast<int>(done.size());
  }
}

WorkloadResult RunHashWorkload(const HashWorkloadConfig& config) {
  Harness h(config);
  SpawnDrivers(h);

  h.bed.sim.RunFor(config.warmup);
  const CpuSnapshot start = Snapshot(h);
  if (config.on_measure_start) config.on_measure_start();
  const Nanos t0 = h.bed.sim.Now();
  const std::uint64_t events0 = h.bed.sim.EventsProcessed();
  h.bed.sim.RunFor(config.measure);
  if (config.on_measure_end) config.on_measure_end();
  const CpuSnapshot end = Snapshot(h);
  const Nanos elapsed = h.bed.sim.Now() - t0;

  WorkloadResult result;
  result.ops = end.ops - start.ops;
  result.sim_events = h.bed.sim.EventsProcessed() - events0;
  result.elapsed = elapsed;
  result.mops = Mops(result.ops, elapsed);
  const Nanos comm = end.comm - start.comm;
  const Nanos compute = end.compute - start.compute;
  result.comm_ratio =
      comm + compute > 0
          ? static_cast<double>(comm) / static_cast<double>(comm + compute)
          : 0.0;
  result.offload_core_util =
      h.agent ? static_cast<double>(end.agent_busy - start.agent_busy) /
                    static_cast<double>(elapsed)
              : 0.0;
  if (config.telemetry != nullptr) {
    result.telemetry = config.telemetry->metrics.TakeSnapshot();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Latency probe (Figure 13)
// ---------------------------------------------------------------------------

LatencyResult RunLatencyProbe(const LatencyProbeConfig& config) {
  HashWorkloadConfig base;
  base.paradigm = config.paradigm;
  base.threads = 1;
  base.record_size = config.record_size;
  base.records = 1'000'000;
  base.local_fraction = 0.0;  // every op goes remote
  base.window = config.inflight;
  base.agent = config.agent;
  base.costs = config.costs;
  base.telemetry = config.telemetry;
  Harness h(base);

  PercentileSampler sampler;
  sampler.Reserve(config.samples);
  bool finished = false;

  h.bed.sim.Spawn([](Harness& hh, const LatencyProbeConfig& cfg,
                     PercentileSampler& out, bool& done) -> sim::Task<void> {
    sim::SimThread& thread = *hh.threads[0];
    Rng rng(4242);
    const auto len = static_cast<std::uint32_t>(cfg.record_size);
    if (cfg.paradigm == Paradigm::kOneSidedSync) {
      for (int i = 0; i < cfg.samples; ++i) {
        const Nanos begin = hh.bed.sim.Now();
        const std::uint64_t key = rng.Below(hh.cfg.records);
        co_await baselines::SyncRead(thread, cfg.costs, hh.endpoints[0],
                                     kPoolBase + key * cfg.record_size,
                                     hh.HeapFor(0), len);
        out.Add(static_cast<double>(hh.bed.sim.Now() - begin));
      }
    } else if (cfg.paradigm == Paradigm::kOneSidedAsync) {
      // Keep `inflight` reads outstanding; latency includes queueing behind
      // the batch, as in the paper.
      baselines::AsyncPipeline& pipeline = *hh.pipelines[0];
      std::deque<Nanos> issue_times;
      int issued = 0, completed = 0;
      while (completed < cfg.samples) {
        if (pipeline.CanIssue() && issued < cfg.samples + cfg.inflight) {
          const std::uint64_t key = rng.Below(hh.cfg.records);
          issue_times.push_back(hh.bed.sim.Now());
          co_await pipeline.IssueRead(thread,
                                      kPoolBase + key * cfg.record_size,
                                      hh.HeapFor(0), len);
          ++issued;
          continue;
        }
        auto cqe = co_await pipeline.Poll(thread);
        if (cqe.has_value()) {
          out.Add(static_cast<double>(hh.bed.sim.Now() -
                                      issue_times.front()));
          issue_times.pop_front();
          ++completed;
        }
      }
    } else {
      // Cowbird variants.
      auto& ctx = hh.client->thread(0);
      const core::PollId poll = ctx.PollCreate();
      std::deque<std::pair<std::uint64_t, Nanos>> issue_times;  // seq → t
      std::vector<core::ReqId> done_ids;
      done_ids.reserve(static_cast<std::size_t>(cfg.inflight));
      int issued = 0, completed = 0, outstanding = 0;
      while (completed < cfg.samples) {
        if (outstanding < cfg.inflight &&
            issued < cfg.samples + cfg.inflight) {
          const std::uint64_t key = rng.Below(hh.cfg.records);
          auto id = co_await ctx.AsyncRead(thread, kRegion,
                                           key * cfg.record_size,
                                           hh.HeapFor(0), len);
          if (id.has_value()) {
            ctx.PollAdd(poll, *id);
            issue_times.emplace_back(id->seq(), hh.bed.sim.Now());
            ++issued;
            ++outstanding;
            continue;
          }
        }
        co_await ctx.PollWait(thread, poll, done_ids, cfg.inflight, 0);
        if (done_ids.empty()) {
          co_await thread.Idle(200);
          continue;
        }
        for (const auto& id : done_ids) {
          COWBIRD_CHECK(!issue_times.empty() &&
                        issue_times.front().first == id.seq());
          out.Add(static_cast<double>(hh.bed.sim.Now() -
                                      issue_times.front().second));
          issue_times.pop_front();
          ++completed;
          --outstanding;
        }
      }
    }
    done = true;
    hh.bed.sim.Halt();
  }(h, config, sampler, finished));

  h.bed.sim.Run();
  COWBIRD_CHECK(finished);
  LatencyResult result;
  result.samples = sampler.count();
  result.median_us = sampler.Median() / 1000.0;
  result.p99_us = sampler.P99() / 1000.0;
  if (config.telemetry != nullptr) {
    result.telemetry = config.telemetry->metrics.TakeSnapshot();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Bandwidth contention (Figure 14)
// ---------------------------------------------------------------------------

ContentionResult RunContentionExperiment(const HashWorkloadConfig& config,
                                         int tcp_flows,
                                         BitRate compute_uplink) {
  Harness h(config, compute_uplink);
  // Figure 14 compares Cowbird against no Cowbird.
  COWBIRD_CHECK(config.paradigm == Paradigm::kLocalMemory ||
                config.paradigm == Paradigm::kCowbird ||
                config.paradigm == Paradigm::kCowbirdNoBatch ||
                config.paradigm == Paradigm::kCowbirdP4);
  // Worst case per the paper: RDMA above user traffic on the shared uplink.
  h.bed.compute().nic.uplink().set_priority_scheduling(true);
  SpawnDrivers(h);

  std::vector<std::unique_ptr<net::GreedyFlow>> flows;
  for (int i = 0; i < tcp_flows; ++i) {
    flows.push_back(std::make_unique<net::GreedyFlow>(
        h.bed.compute().nic, h.bed.bystander().nic,
        static_cast<std::uint16_t>(i), net::GreedyFlow::Config{}));
  }

  h.bed.sim.RunFor(config.warmup);
  const CpuSnapshot start = Snapshot(h);
  const Nanos t0 = h.bed.sim.Now();
  for (auto& flow : flows) flow->Start();
  h.bed.sim.RunFor(config.measure);
  const CpuSnapshot end = Snapshot(h);
  const Nanos elapsed = h.bed.sim.Now() - t0;

  ContentionResult result;
  for (auto& flow : flows) result.tcp_gbps += flow->GoodputGbps();
  result.app_mops = Mops(end.ops - start.ops, elapsed);
  return result;
}

}  // namespace cowbird::workload
