#include "chaos/runner.h"

#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "chaos/fault_injector.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/cluster_pool.h"
#include "core/migration.h"
#include "offload/progress.h"
#include "offload/registry.h"
#include "p4/engine.h"
#include "rdma/device.h"
#include "rdma/params.h"
#include "sim/simulation.h"
#include "sim/thread.h"
#include "spot/agent.h"
#include "spot/setup.h"
#include "workload/fabric.h"

namespace cowbird::chaos {
namespace {

using core::CowbirdClient;
using core::ReqId;

using workload::kMemory2Id;
using workload::kMemoryId;
constexpr net::NodeId kSwitchId = 100;
constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;
// Issue no new operations past this point; drain until the hard deadline.
constexpr Nanos kIssueDeadline = Millis(20);
constexpr Nanos kDrainDeadline = Millis(40);

// Migration runs (plan.migrate): the primary server's slab is deliberately
// this small, so the region's hot head — every offset the workload touches —
// becomes its own range there and the cold tail spills to the second
// server. The scenario then live-migrates the hot range under traffic.
constexpr Bytes kMigrateRangeBytes = KiB(256);
constexpr std::uint64_t kPool2Base = 0x1000'0000;  // second server's slab
constexpr Nanos kMigrateTick = Micros(50);  // coordinator cadence

// Bystander-tenant traffic behind the incast/victim scenarios: 4 KiB
// closed-loop streams deep enough to push an egress queue past the ECN
// threshold. Starts almost immediately so it overlaps even the shortest
// workloads (the run's Halt() is what ends it).
constexpr Nanos kBgStart = Micros(50);
constexpr Bytes kBgBytes = 4096;
constexpr int kBgWindow = 24;
constexpr std::uint64_t kBgSpan = MiB(4);
constexpr std::uint64_t kBgMemBase = 0xA000'0000;    // scratch on responder
constexpr std::uint64_t kBgLocalBase = 0xC000'0000;  // requester staging

// The whole deterministic world of one chaos run: the chaos testbed
// (workload::ChaosTopology), a client, the serving engine plus spot
// standbys behind an InstanceRegistry, the fault injector, and the
// recorded history.
struct ChaosHarness {
  // Congestion scenarios tighten the fabric; kNone leaves every knob at
  // its default so pre-congestion runs stay byte-identical.
  static net::Switch::Config MakeSwitchConfig(const ChaosOptions& opt) {
    net::Switch::Config sc = workload::DefaultSwitchConfig();
    switch (opt.plan.congestion) {
      case CongestionScenario::kNone:
        break;
      case CongestionScenario::kIncast:
      case CongestionScenario::kVictim:
        sc.egress_queue_capacity = KiB(64);
        sc.ecn_threshold = KiB(16);
        break;
      case CongestionScenario::kPauseStorm:
        sc.pfc_enabled = true;
        sc.pfc_pause_threshold = KiB(32);
        sc.pfc_resume_threshold = KiB(16);
        break;
    }
    return sc;
  }

  static rdma::NicConfig MakeNicConfig(const ChaosOptions& opt) {
    rdma::NicConfig nc;
    if (opt.plan.congestion == CongestionScenario::kIncast ||
        opt.plan.congestion == CongestionScenario::kVictim) {
      nc.dcqcn.enabled = true;
    }
    return nc;
  }

  ChaosHarness(const ChaosOptions& opt, telemetry::Hub* hub)
      : options(opt),
        fabric(workload::ChaosTopology(opt.plan.migrate),
               MakeSwitchConfig(opt), MakeNicConfig(opt), hub),
        standby_machine(fabric.sim, 1),
        injector(fabric.sim, opt.plan, opt.seed) {
    if (opt.plan.migrate) {
      // The elastic pool owns the slabs (it registers the MRs itself);
      // legacy runs keep the historical single RegisterMemory call so the
      // rkey sequence — and thus every golden-pinned byte — is untouched.
      pool.AddServer(memory.dev, kPoolBase, kMigrateRangeBytes);
      pool.AddServer(fabric.memory(1).dev, kPool2Base, MiB(80));
      if (hub != nullptr) {
        pool.BindTelemetry(hub->metrics, telemetry::Labels{});
      }
    } else {
      pool_mr = memory.dev.RegisterMemory(kPoolBase, MiB(64));
    }

    CowbirdClient::Config cc;
    cc.layout.base = 0x10000;
    cc.layout.threads = opt.workload.threads;
    cc.layout.meta_slots = 128;
    cc.layout.data_capacity = KiB(128);
    cc.layout.resp_capacity = KiB(128);
    cc.telemetry = hub;
    client = std::make_unique<CowbirdClient>(compute.dev, cc);
    if (opt.plan.migrate) {
      // Preferred-first allocation carves the hot head on the primary
      // server and spills the tail to memory2; the client publishes the
      // pool's authoritative range table so both engines translate per
      // range from the very first attach.
      const auto region =
          pool.AllocateRegion(kRegion, kPoolBase, MiB(64), kMemoryId);
      COWBIRD_CHECK(region.has_value());
      client->RegisterRegion(*region);
      client->SetRegionRanges(kRegion, pool.RangesFor(kRegion));
    } else {
      client->RegisterRegion(core::RegionInfo{kRegion, kMemoryId, kPoolBase,
                                              pool_mr->rkey, MiB(64)});
    }

    spot::SpotAgent::Config config_a;
    config_a.staging_base = 0x4000'0000;
    config_a.chaos_unsafe_skip_hazards = opt.break_fence;
    config_a.telemetry = hub;
    spot::SpotAgent::Config config_b;
    config_b.staging_base = 0x8000'0000;
    config_b.chaos_unsafe_skip_hazards = opt.break_fence;
    config_b.telemetry = hub;
    agent_a =
        std::make_unique<spot::SpotAgent>(spot.dev, spot.machine, config_a);
    agent_b = std::make_unique<spot::SpotAgent>(spot.dev, standby_machine,
                                                config_b);
    agent_a->Start();
    agent_b->Start();

    if (opt.engine == EngineKind::kP4) {
      p4::CowbirdP4Engine::Config ec;
      ec.switch_node_id = kSwitchId;
      ec.chaos_unsafe_skip_hazards = opt.break_fence;
      ec.telemetry = hub;
      p4_engine = std::make_unique<p4::CowbirdP4Engine>(fabric.sw(), ec);
      p4_engine->Start();
      serving = registry.AddEngine(P4Binding());
      serving_agent = nullptr;
    } else {
      serving = registry.AddEngine(SpotBinding(*agent_a, "spot-a"));
      serving_agent = agent_a.get();
    }
    const EngineId placed =
        registry.AddInstance(client->descriptor().instance_id, serving);
    COWBIRD_CHECK(placed == serving);

    if (opt.plan.AnyPacketFaults()) {
      for (int i = 0; i < fabric.host_count(); ++i) {
        injector.Attach(fabric.host(i).egress());
        injector.Attach(fabric.host(i).uplink());
      }
    }
    if (opt.plan.congestion == CongestionScenario::kIncast ||
        opt.plan.congestion == CongestionScenario::kVictim) {
      SetupBackgroundTraffic(opt.plan.congestion);
    }
    if (opt.plan.congestion == CongestionScenario::kPauseStorm) {
      // A storm of pause frames "received" at the switch egress: every
      // 200us between 1ms and 6ms, the links toward the memory and compute
      // hosts pause their data classes for 50us.
      for (Nanos when = Millis(1); when < Millis(6); when += Micros(200)) {
        fabric.sim.ScheduleAt(when, [this] {
          memory.egress().PauseData(Micros(50));
          compute.egress().PauseData(Micros(50));
        });
      }
    }
    for (const Nanos when : opt.plan.crashes) {
      fabric.sim.ScheduleAt(when, [this] { CrashServingEngine(); });
    }
    if (opt.plan.migrate) {
      // Live-migrate the hot range to memory2 from migrate_start on, through
      // a registry handoff. The copy stream's QP writes from the source
      // device into memory2's slab, congestion-controlled against the
      // foreground traffic.
      const std::uint32_t id = client->descriptor().instance_id;
      core::RegionMigrator::Hooks hooks;
      // BeginHandoff refuses while the instance is mid crash-migration and
      // unassigned; the migrator retries on its next tick.
      hooks.detach = [this, id] { return registry.BeginHandoff(id); };
      hooks.attach = [this, id] {
        serving = registry.CompleteHandoff(id);
        COWBIRD_CHECK(serving != offload::kNoEngine);
      };
      core::RegionMigrator::Config mc;
      mc.chunk = KiB(16);  // stretch the copy so foreground writes race it
      mc.window = 2;
      mc.telemetry = hub;
      migrator = std::make_unique<core::RegionMigrator>(
          pool, *client, kRegion, kPoolBase, kMemory2Id, memory.dev,
          rdma::ConnectQueuePairs(memory.dev, fabric.memory(1).dev),
          std::move(hooks), opt.plan.migrate_start, kMigrateTick,
          kDrainDeadline, mc);
    }
  }

  using EngineId = offload::EngineId;

  // The client's published red block, per thread — the optimistic counters
  // a crash-exported snapshot is reconciled against.
  std::vector<offload::ThreadProgress> ReadPublishedProgress() const {
    std::vector<offload::ThreadProgress> published;
    const auto& layout = client->descriptor().layout;
    std::vector<std::uint8_t> block(core::kRedBlockBytes);
    for (int t = 0; t < layout.threads; ++t) {
      compute.mem.Read(layout.RedAddr(t), block);
      published.push_back(offload::ProgressPublisher::Unpack(block));
    }
    return published;
  }

  offload::EngineBinding SpotBinding(spot::SpotAgent& agent,
                                     std::string name) {
    offload::EngineBinding binding;
    binding.name = std::move(name);
    binding.attach = [this, &agent](std::uint32_t instance_id,
                                    const offload::InstanceProgress* resume) {
      COWBIRD_CHECK(instance_id == client->descriptor().instance_id);
      std::vector<rdma::Device*> memories{&memory.dev};
      if (options.plan.migrate) memories.push_back(&fabric.memory(1).dev);
      auto conn = spot::ConnectSpotEngine(spot.dev, compute.dev, memories);
      offload::InstanceProgress reconciled;
      const offload::InstanceProgress* use = resume;
      if (resume != nullptr) {
        reconciled = *resume;
        offload::ReconcileWithPublished(reconciled, ReadPublishedProgress());
        use = &reconciled;
      }
      agent.AddInstance(client->descriptor(), conn.to_compute,
                        conn.compute_cq, conn.to_memory, conn.memory_cqs,
                        use);
      conn_of[&agent] = conn;
      serving_agent = &agent;
      return true;
    };
    binding.detach = [this, &agent](std::uint32_t instance_id) {
      // Crash semantics: export, then kill the NIC state mid-flight — no
      // drain, and no zombie retransmissions once the survivor takes over.
      auto snapshot = agent.ExportProgress(instance_id);
      agent.RemoveInstance(instance_id);
      auto it = conn_of.find(&agent);
      if (it != conn_of.end()) {
        it->second.to_compute->Halt();
        for (auto& [node, qp] : it->second.to_memory) qp->Halt();
        conn_of.erase(it);
      }
      return snapshot;
    };
    return binding;
  }

  offload::EngineBinding P4Binding() {
    offload::EngineBinding binding;
    binding.name = "p4";
    binding.attach = [this](std::uint32_t instance_id,
                            const offload::InstanceProgress* resume) {
      COWBIRD_CHECK(instance_id == client->descriptor().instance_id);
      // Every attach consumes a fresh QPN block: a handoff re-attach must
      // not collide with the host QPs the detached connection left behind.
      // (The first attach still gets the historical 0x800 base.)
      const std::uint32_t qpn_base = p4_qpn_base;
      p4_qpn_base += 0x40;
      std::vector<rdma::Device*> memories{&memory.dev};
      if (options.plan.migrate) memories.push_back(&fabric.memory(1).dev);
      auto conn = p4::ConnectP4Engine(*p4_engine, kSwitchId, compute.dev,
                                      memories, qpn_base);
      p4_engine->AddInstance(client->descriptor(), conn, resume);
      serving_agent = nullptr;
      return true;
    };
    binding.detach = [this](std::uint32_t instance_id) {
      // The P4 engine's counters only ever cover completed work and its
      // in-flight pipeline state dies with the instance entry, so its
      // export is crash-safe as-is. The switch makes no host-side verbs of
      // its own to halt; packets already on the wire land harmlessly
      // (idempotent re-execution, Section 5.3). A handoff detach keeps the
      // probe loop alive — the same switch re-attaches the instance after
      // the cutover.
      auto snapshot = p4_engine->ExportProgress(instance_id);
      p4_engine->RemoveInstance(instance_id);
      if (!registry.HandoffInProgress(instance_id)) p4_engine->StopProbing();
      return snapshot;
    };
    return binding;
  }

  // One bystander flow: a closed-loop 4 KiB stream on its own QP pair.
  struct BgFlow {
    rdma::QpPair pair;
    bool write = false;
    std::uint64_t laddr = 0;
    std::uint64_t raddr = 0;
    std::uint32_t rkey = 0;
    std::uint64_t posted = 0;
  };

  // kIncast fans two read streams (served by the memory and spot hosts)
  // into the compute port, so the tenant under test shares the congested
  // egress with the bystander. kVictim aims two write streams at the
  // memory port instead: the tenant's own requests must cross a port
  // somebody else congested. Both shapes leave the fault plan's packet
  // streams untouched — the bystander packets go through the same
  // injector, which is part of the scenario's determinism surface.
  void SetupBackgroundTraffic(CongestionScenario scenario) {
    bg_flows.reserve(2);
    if (scenario == CongestionScenario::kIncast) {
      const auto* mem_mr = memory.dev.RegisterMemory(kBgMemBase, kBgSpan);
      const auto* spot_mr = spot.dev.RegisterMemory(kBgMemBase, kBgSpan);
      compute.mem.PreFault(kBgLocalBase, 2 * kBgSpan);
      bg_flows.push_back(BgFlow{ConnectQueuePairs(compute.dev, memory.dev),
                                /*write=*/false, kBgLocalBase, mem_mr->base,
                                mem_mr->rkey});
      bg_flows.push_back(BgFlow{ConnectQueuePairs(compute.dev, spot.dev),
                                /*write=*/false, kBgLocalBase + kBgSpan,
                                spot_mr->base, spot_mr->rkey});
    } else {
      const auto* mem_mr = memory.dev.RegisterMemory(kBgMemBase, kBgSpan);
      compute.mem.PreFault(kBgLocalBase, kBgSpan);
      spot.mem.PreFault(kBgLocalBase, kBgSpan);
      bg_flows.push_back(BgFlow{ConnectQueuePairs(compute.dev, memory.dev),
                                /*write=*/true, kBgLocalBase, mem_mr->base,
                                mem_mr->rkey});
      bg_flows.push_back(BgFlow{ConnectQueuePairs(spot.dev, memory.dev),
                                /*write=*/true, kBgLocalBase, mem_mr->base,
                                mem_mr->rkey});
    }
    for (BgFlow& f : bg_flows) {
      fabric.sim.ScheduleAt(kBgStart, [this, &f] {
        for (int i = 0; i < kBgWindow; ++i) PostBg(f);
        PumpBg(f);
      });
    }
  }

  void PostBg(BgFlow& f) {
    const std::uint64_t slot = f.posted++ % (kBgSpan / kBgBytes);
    f.pair.a->PostSend(rdma::SendWqe{
        f.write ? rdma::WqeOp::kWrite : rdma::WqeOp::kRead, f.posted,
        f.laddr + slot * kBgBytes, f.raddr + slot * kBgBytes, f.rkey,
        static_cast<std::uint32_t>(kBgBytes), true});
  }

  void PumpBg(BgFlow& f) {
    while (f.pair.a_send_cq->Pop()) PostBg(f);
    fabric.sim.ScheduleAfter(500, [this, &f] { PumpBg(f); });
  }

  void CrashServingEngine() {
    if (serving == offload::kNoEngine) return;
    // Bring up the standby as a *new* registry engine first so the
    // migration has exactly one live target, then kill the serving one.
    spot::SpotAgent* standby =
        serving_agent == agent_a.get() ? agent_b.get() : agent_a.get();
    const EngineId fresh = registry.AddEngine(
        SpotBinding(*standby, standby == agent_a.get() ? "spot-a" : "spot-b"));
    const EngineId dying = serving;
    registry.StopEngine(dying);
    serving = fresh;
    ++crashes_executed;
  }

  const ChaosOptions& options;
  workload::Fabric fabric;
  // The testbed's hosts; migration runs add memory2 as fabric.memory(1).
  workload::Fabric::Host& compute = fabric.compute();
  workload::Fabric::Host& memory = fabric.memory();
  workload::Fabric::Host& spot = fabric.spot();
  // Agent a runs on the spot host's machine, the standby b on its own core.
  sim::Machine standby_machine;
  const rdma::MemoryRegion* pool_mr = nullptr;
  std::unique_ptr<CowbirdClient> client;
  std::unique_ptr<spot::SpotAgent> agent_a;
  std::unique_ptr<spot::SpotAgent> agent_b;
  std::unique_ptr<p4::CowbirdP4Engine> p4_engine;
  offload::InstanceRegistry registry;
  std::map<spot::SpotAgent*, spot::SpotConnection> conn_of;
  spot::SpotAgent* serving_agent = nullptr;
  EngineId serving = offload::kNoEngine;
  // Live-migration state (plan.migrate only).
  core::ClusterPool pool;
  std::unique_ptr<core::RegionMigrator> migrator;
  std::uint32_t p4_qpn_base = 0x800;
  FaultInjector injector;
  std::vector<BgFlow> bg_flows;
  HistoryRecorder recorder;
  std::uint64_t reads_checked = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t crashes_executed = 0;
  int threads_done = 0;
};

// One application thread: random reads/writes over its own slots, every
// operation recorded as an interval in the shared history.
sim::Task<void> WorkloadThread(ChaosHarness& h, int t) {
  const WorkloadParams& wl = h.options.workload;
  sim::Simulation& sim = h.fabric.sim;
  sim::SimThread thread(h.compute.machine, "chaos-app");
  auto& ctx = h.client->thread(t);
  const core::PollId poll = ctx.PollCreate();
  Rng rng(h.options.seed * 1000003 + static_cast<std::uint64_t>(t) * 7919 +
          1);

  const std::uint64_t scratch = kHeap + static_cast<std::uint64_t>(t) *
                                            MiB(4);
  const std::uint64_t dest_base =
      kHeap + MiB(32) + static_cast<std::uint64_t>(t) * MiB(1);
  std::vector<std::uint64_t> versions(wl.slots_per_thread, 0);

  struct PendingEntry {
    std::uint64_t seq = 0;      // client-side per-type sequence
    std::uint64_t hist_id = 0;  // HistoryRecorder op id
    std::uint64_t dest = 0;     // reads only
    std::uint32_t length = 0;
  };
  std::deque<PendingEntry> reads, writes;
  int dest_rr = 0;

  auto harvest = [&h, &sim, &ctx, &reads, &writes] {
    while (!reads.empty() && ctx.reads_retired() >= reads.front().seq) {
      const PendingEntry& r = reads.front();
      std::vector<std::uint8_t> observed(r.length);
      h.compute.mem.Read(r.dest, observed);
      h.recorder.OnComplete(r.hist_id, sim.Now(),
                            HistoryRecorder::Digest(observed));
      ++h.reads_checked;
      reads.pop_front();
    }
    while (!writes.empty() && ctx.writes_retired() >= writes.front().seq) {
      h.recorder.OnComplete(writes.front().hist_id, sim.Now());
      ++h.writes_completed;
      writes.pop_front();
    }
  };

  std::vector<std::uint8_t> payload;
  for (int i = 0; i < wl.ops_per_thread && sim.Now() < kIssueDeadline;) {
    const int slot = static_cast<int>(rng.Below(
        static_cast<std::uint64_t>(wl.slots_per_thread)));
    const std::uint64_t offset =
        static_cast<std::uint64_t>(t * wl.slots_per_thread + slot) * 4096;
    if (rng.Bernoulli(wl.write_ratio)) {
      const std::uint64_t version = versions[slot] + 1;
      payload.assign(wl.len, 0);
      for (int b = 0; b < 8; ++b) {
        payload[b] = static_cast<std::uint8_t>(version >> (8 * b));
        payload[8 + b] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(offset) >> (8 * b));
      }
      for (std::uint32_t b = 16; b < wl.len; ++b) {
        payload[b] = static_cast<std::uint8_t>(
            version * 37 + static_cast<std::uint64_t>(slot));
      }
      h.compute.mem.Write(scratch, payload);
      auto id = co_await ctx.AsyncWrite(thread, kRegion, scratch, offset,
                                        wl.len);
      if (!id.has_value()) {
        harvest();
        co_await thread.Idle(Micros(10));
        continue;
      }
      versions[slot] = version;
      const std::uint64_t hist_id =
          h.recorder.OnInvoke(t, /*is_write=*/true, kRegion, offset, wl.len,
                              sim.Now(), HistoryRecorder::Digest(payload));
      writes.push_back(PendingEntry{id->seq(), hist_id, 0, wl.len});
      ctx.PollAdd(poll, *id);
    } else {
      const std::uint64_t dest =
          dest_base + static_cast<std::uint64_t>(dest_rr++ % 64) * 4096;
      auto id = co_await ctx.AsyncRead(thread, kRegion, offset, dest,
                                       wl.len);
      if (!id.has_value()) {
        harvest();
        co_await thread.Idle(Micros(10));
        continue;
      }
      const std::uint64_t hist_id = h.recorder.OnInvoke(
          t, /*is_write=*/false, kRegion, offset, wl.len, sim.Now());
      reads.push_back(PendingEntry{id->seq(), hist_id, dest, wl.len});
    }
    ++i;

    while (static_cast<int>(reads.size() + writes.size()) >=
           wl.max_outstanding) {
      const auto done = co_await ctx.PollWait(thread, poll, 16, 0);
      harvest();
      if (static_cast<int>(reads.size() + writes.size()) <
          wl.max_outstanding) {
        break;
      }
      if (done.empty()) co_await thread.Idle(Micros(5));
      if (sim.Now() >= kDrainDeadline) break;
    }
    if (sim.Now() >= kDrainDeadline) break;
  }

  // Drain: whatever never retires by the deadline stays open in the
  // history and the checker reports it.
  while (!(reads.empty() && writes.empty()) &&
         sim.Now() < kDrainDeadline) {
    (void)co_await ctx.PollWait(thread, poll, 16, Micros(50));
    harvest();
  }
  if (++h.threads_done == h.options.workload.threads) sim.Halt();
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  return kind == EngineKind::kSpot ? "spot" : "p4";
}

std::optional<EngineKind> ParseEngineKind(std::string_view name) {
  if (name == "spot") return EngineKind::kSpot;
  if (name == "p4") return EngineKind::kP4;
  return std::nullopt;
}

ChaosOptions SweepOptions(EngineKind engine, std::uint64_t seed,
                          bool break_fence) {
  ChaosOptions opt;
  opt.engine = engine;
  opt.seed = seed;
  opt.break_fence = break_fence;
  opt.workload.threads = 2;
  opt.workload.ops_per_thread = 200;
  if (break_fence) {
    // Hot single slot maximizes read-after-write conflicts so the planted
    // bug has every chance to manifest; no packet faults needed.
    opt.workload.slots_per_thread = 1;
    opt.workload.write_ratio = 0.5;
  } else {
    opt.plan = FaultPlan::FromSeed(seed, /*crash_count=*/seed % 2 ? 2 : 0);
  }
  return opt;
}

std::string WorkloadParams::Serialize() const {
  std::ostringstream out;
  out << "threads=" << threads << " slots=" << slots_per_thread
      << " len=" << len << " ops=" << ops_per_thread;
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.6g", write_ratio);
  out << " write_ratio=" << ratio << " outstanding=" << max_outstanding;
  return out.str();
}

std::optional<WorkloadParams> WorkloadParams::Parse(std::string_view line) {
  WorkloadParams wl;
  std::istringstream in{std::string(line)};
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "threads") {
      wl.threads = std::atoi(value.c_str());
    } else if (key == "slots") {
      wl.slots_per_thread = std::atoi(value.c_str());
    } else if (key == "len") {
      wl.len = static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (key == "ops") {
      wl.ops_per_thread = std::atoi(value.c_str());
    } else if (key == "write_ratio") {
      wl.write_ratio = std::atof(value.c_str());
    } else if (key == "outstanding") {
      wl.max_outstanding = std::atoi(value.c_str());
    } else {
      return std::nullopt;
    }
  }
  return wl;
}

ChaosResult RunChaos(const ChaosOptions& options, telemetry::Hub* hub) {
  // A CHECK that fails anywhere below names this run, so an aborted sweep
  // says which seed to replay.
  char context[128];
  std::snprintf(context, sizeof(context),
                "engine=%s seed=%llu congestion=%s migrate=%d",
                EngineKindName(options.engine),
                static_cast<unsigned long long>(options.seed),
                CongestionScenarioName(options.plan.congestion),
                options.plan.migrate ? 1 : 0);
  const ScopedCheckContext named_run(context);
  COWBIRD_CHECK(options.workload.threads >= 1);
  COWBIRD_CHECK(options.workload.len >= 16 && options.workload.len <= 4096);
  COWBIRD_CHECK(options.workload.max_outstanding >= 1 &&
                options.workload.max_outstanding <= 32);

  ChaosHarness harness(options, hub);
  for (int t = 0; t < options.workload.threads; ++t) {
    harness.fabric.sim.Spawn(WorkloadThread(harness, t));
  }
  harness.fabric.sim.Run();

  ChaosResult result;
  result.history = harness.recorder.ops();
  result.violations = CheckHistory(result.history);
  result.reads_checked = harness.reads_checked;
  result.writes_completed = harness.writes_completed;
  result.faults_injected = harness.injector.decided_total();
  result.counters_exact = harness.injector.CountersExact();
  result.decided_dropped = harness.injector.decided_dropped();
  result.decided_duplicated = harness.injector.decided_duplicated();
  result.decided_reordered = harness.injector.decided_reordered();
  result.decided_delayed = harness.injector.decided_delayed();
  result.crashes_executed = harness.crashes_executed;
  if (harness.migrator != nullptr) {
    result.migrations_executed = harness.migrator->cut_over() ? 1 : 0;
    result.migrate_bytes_copied = harness.migrator->bytes_copied();
    result.migrate_dirty_marks = harness.migrator->dirty_marks();
  }
  result.ecn_marked = harness.fabric.ecn_marked();
  result.pfc_pauses = harness.fabric.pfc_pauses();
  result.link_pauses = harness.fabric.link_pauses();
  result.cnps = harness.fabric.cnps();
  if (hub != nullptr) {
    result.telemetry = hub->metrics.TakeSnapshot();
  }
  return result;
}

}  // namespace cowbird::chaos
