// Multi-engine sharding: one deployment's instances spread across several
// concurrently running offload engines by an InstanceRegistry, with
// registry-driven migration when an engine is decommissioned.
//
// Two spot agents run on the same harvested node (disjoint staging arenas,
// separate QPs/CQs); two client instances on the compute node are sharded
// one-per-engine. Stopping an engine exports the red-block progress
// snapshot through the registry and the surviving engine resumes the
// instance from it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "offload/progress.h"
#include "offload/registry.h"
#include "spot/agent.h"
#include "spot/setup.h"
#include "workload/fabric.h"

namespace cowbird::spot {
namespace {

using workload::Fabric;
using core::CowbirdClient;
using core::RegionInfo;
using core::ReqId;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr std::uint16_t kRegion = 1;

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  return data;
}

class MultiEngineTest : public ::testing::Test {
 public:
  MultiEngineTest() : machine_b_(f_.sim, 1) {
    pool_mr_ = f_.memory().dev.RegisterMemory(kPoolBase, MiB(64));

    SpotAgent::Config config_a;
    config_a.staging_base = 0x4000'0000;
    SpotAgent::Config config_b;
    config_b.staging_base = 0x8000'0000;
    agent_a_ =
        std::make_unique<SpotAgent>(f_.spot().dev, f_.spot().machine, config_a);
    agent_b_ = std::make_unique<SpotAgent>(f_.spot().dev, machine_b_, config_b);

    clients_.push_back(MakeClient(0x10000));
    clients_.push_back(MakeClient(0x800000));

    engine_a_ = registry_.AddEngine(BindingFor(*agent_a_, "spot-a"));
    engine_b_ = registry_.AddEngine(BindingFor(*agent_b_, "spot-b"));
    agent_a_->Start();
    agent_b_->Start();
    app_thread_ = std::make_unique<sim::SimThread>(f_.compute().machine, "app");
  }

  std::unique_ptr<CowbirdClient> MakeClient(std::uint64_t layout_base) {
    CowbirdClient::Config config;
    config.layout.base = layout_base;
    config.layout.threads = 1;
    config.layout.meta_slots = 64;
    config.layout.data_capacity = KiB(64);
    config.layout.resp_capacity = KiB(64);
    auto client = std::make_unique<CowbirdClient>(f_.compute().dev, config);
    client->RegisterRegion(RegionInfo{kRegion, workload::kMemoryId,
                                      kPoolBase, pool_mr_->rkey, MiB(64)});
    return client;
  }

  CowbirdClient* ClientFor(std::uint32_t instance_id) {
    for (auto& client : clients_) {
      if (client->descriptor().instance_id == instance_id) {
        return client.get();
      }
    }
    return nullptr;
  }

  // The registry sees every engine through this backend-agnostic binding:
  // attach wires fresh QPs and resumes from the snapshot, detach exports
  // the snapshot and deactivates the instance.
  offload::EngineBinding BindingFor(SpotAgent& agent, std::string name) {
    offload::EngineBinding binding;
    binding.name = std::move(name);
    binding.attach = [this, &agent](std::uint32_t instance_id,
                                    const offload::InstanceProgress* resume) {
      CowbirdClient* client = ClientFor(instance_id);
      if (client == nullptr) return false;
      rdma::Device* memories[] = {&f_.memory().dev};
      auto conn = ConnectSpotEngine(f_.spot().dev, f_.compute().dev, memories);
      agent.AddInstance(client->descriptor(), conn.to_compute,
                        conn.compute_cq, conn.to_memory, conn.memory_cqs,
                        resume);
      return true;
    };
    binding.detach = [&agent](std::uint32_t instance_id) {
      auto snapshot = agent.ExportProgress(instance_id);
      agent.RemoveInstance(instance_id);
      return snapshot;
    };
    return binding;
  }

  // The client's published red block, per thread — the optimistic counters
  // a crash-exported snapshot must be reconciled against at attach time.
  std::vector<offload::ThreadProgress> ReadPublishedProgress(
      const CowbirdClient& client) {
    std::vector<offload::ThreadProgress> published;
    const auto& layout = client.descriptor().layout;
    std::vector<std::uint8_t> block(core::kRedBlockBytes);
    for (int t = 0; t < layout.threads; ++t) {
      f_.compute().mem.Read(layout.RedAddr(t), block);
      published.push_back(offload::ProgressPublisher::Unpack(block));
    }
    return published;
  }

  // Crash-flavored binding: detach exports mid-flight (no drain) and halts
  // the dead engine's QPs so no zombie retransmission races the survivor.
  // Attach runs after the export — possibly after red writes that were on
  // the wire at export time have landed — so it re-reads the published red
  // block and reconciles before resuming.
  offload::EngineBinding CrashBindingFor(SpotAgent& agent, std::string name) {
    offload::EngineBinding binding;
    binding.name = std::move(name);
    binding.attach = [this, &agent](std::uint32_t instance_id,
                                    const offload::InstanceProgress* resume) {
      CowbirdClient* client = ClientFor(instance_id);
      if (client == nullptr) return false;
      rdma::Device* memories[] = {&f_.memory().dev};
      auto conn = ConnectSpotEngine(f_.spot().dev, f_.compute().dev, memories);
      offload::InstanceProgress reconciled;
      const offload::InstanceProgress* use = resume;
      if (resume != nullptr) {
        reconciled = *resume;
        offload::ReconcileWithPublished(reconciled,
                                        ReadPublishedProgress(*client));
        use = &reconciled;
      }
      agent.AddInstance(client->descriptor(), conn.to_compute,
                        conn.compute_cq, conn.to_memory, conn.memory_cqs,
                        use);
      conn_of_[&agent] = conn;
      return true;
    };
    binding.detach = [this, &agent](std::uint32_t instance_id) {
      auto snapshot = agent.ExportProgress(instance_id);
      agent.RemoveInstance(instance_id);
      auto it = conn_of_.find(&agent);
      if (it != conn_of_.end()) {
        it->second.to_compute->Halt();
        for (auto& [node, qp] : it->second.to_memory) qp->Halt();
        conn_of_.erase(it);
      }
      return snapshot;
    };
    return binding;
  }

  sim::Task<std::vector<std::uint8_t>> ReadAndWait(int client_index,
                                                   std::uint64_t offset,
                                                   std::uint32_t len,
                                                   std::uint64_t dest) {
    auto& ctx = clients_[client_index]->thread(0);
    std::optional<ReqId> id;
    while (!(id = co_await ctx.AsyncRead(*app_thread_, kRegion, offset, dest,
                                         len))) {
      co_await app_thread_->Idle(Micros(5));
    }
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *id);
    for (;;) {
      auto done = co_await ctx.PollWait(*app_thread_, poll, 1, Millis(5));
      if (!done.empty()) break;
    }
    std::vector<std::uint8_t> out(len);
    f_.compute().mem.Read(dest, out);
    co_return out;
  }

  sim::Task<void> WriteAndWait(int client_index, std::uint64_t src,
                               std::uint64_t off, std::uint32_t len) {
    auto& ctx = clients_[client_index]->thread(0);
    std::optional<ReqId> id;
    while (!(id = co_await ctx.AsyncWrite(*app_thread_, kRegion, src, off,
                                          len))) {
      co_await app_thread_->Idle(Micros(5));
    }
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *id);
    for (;;) {
      auto done = co_await ctx.PollWait(*app_thread_, poll, 1, Millis(5));
      if (!done.empty()) break;
    }
  }

  Fabric f_{workload::ChaosTopology()};
  sim::Machine machine_b_;  // agent a runs on the spot host's machine
  const rdma::MemoryRegion* pool_mr_ = nullptr;
  std::unique_ptr<SpotAgent> agent_a_;
  std::unique_ptr<SpotAgent> agent_b_;
  std::vector<std::unique_ptr<CowbirdClient>> clients_;
  offload::InstanceRegistry registry_;
  offload::EngineId engine_a_ = offload::kNoEngine;
  offload::EngineId engine_b_ = offload::kNoEngine;
  std::map<SpotAgent*, SpotConnection> conn_of_;
  std::unique_ptr<sim::SimThread> app_thread_;
};

TEST_F(MultiEngineTest, DisjointShardsServedConcurrently) {
  const std::uint32_t id0 = clients_[0]->descriptor().instance_id;
  const std::uint32_t id1 = clients_[1]->descriptor().instance_id;

  // Least-loaded placement spreads the two instances one-per-engine.
  const auto placed0 = registry_.AddInstance(id0);
  const auto placed1 = registry_.AddInstance(id1);
  ASSERT_NE(placed0, offload::kNoEngine);
  ASSERT_NE(placed1, offload::kNoEngine);
  EXPECT_NE(placed0, placed1);
  EXPECT_EQ(registry_.InstancesOn(placed0), std::vector<std::uint32_t>{id0});
  EXPECT_EQ(registry_.InstancesOn(placed1), std::vector<std::uint32_t>{id1});

  const auto d0 = Pattern(256, 1);
  const auto d1 = Pattern(512, 2);
  f_.memory().mem.Write(kPoolBase + 0x2000, d0);
  f_.compute().mem.Write(kHeap, d1);

  int finished = 0;
  f_.sim.Spawn([](MultiEngineTest& t, const std::vector<std::uint8_t>& want,
                  int& count) -> sim::Task<void> {
    auto got = co_await t.ReadAndWait(0, 0x2000, 256, kHeap + 0x10000);
    EXPECT_EQ(got, want);
    if (++count == 2) t.f_.sim.Halt();
  }(*this, d0, finished));
  f_.sim.Spawn([](MultiEngineTest& t, const std::vector<std::uint8_t>& want,
                  int& count) -> sim::Task<void> {
    co_await t.WriteAndWait(1, kHeap, 0x8000, 512);
    auto got = co_await t.ReadAndWait(1, 0x8000, 512, kHeap + 0x20000);
    EXPECT_EQ(got, want);
    if (++count == 2) t.f_.sim.Halt();
  }(*this, d1, finished));
  f_.sim.Run();

  // Both engines did real work for their own shard.
  EXPECT_GT(agent_a_->probes_sent(), 0u);
  EXPECT_GT(agent_b_->probes_sent(), 0u);
  EXPECT_GE(agent_a_->ops_completed(), 1u);
  EXPECT_GE(agent_b_->ops_completed(), 1u);
}

TEST_F(MultiEngineTest, StoppedEngineMigratesInstanceToSurvivor) {
  const std::uint32_t id0 = clients_[0]->descriptor().instance_id;
  const std::uint32_t id1 = clients_[1]->descriptor().instance_id;
  ASSERT_EQ(registry_.AddInstance(id0, engine_a_), engine_a_);
  ASSERT_EQ(registry_.AddInstance(id1, engine_b_), engine_b_);

  f_.sim.Spawn([](MultiEngineTest& t, std::uint32_t inst0)
                   -> sim::Task<void> {
    // Phase 1: instance 0 does work through engine A.
    for (int i = 0; i < 8; ++i) {
      const auto data = Pattern(200, 100 + i);
      t.f_.compute().mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, i * 1024, 200);
      auto got = co_await t.ReadAndWait(0, i * 1024, 200, kHeap + 0x10000);
      EXPECT_EQ(got, data) << "pre-migration iteration " << i;
    }
    const auto a_ops = t.agent_a_->ops_completed();
    EXPECT_GT(a_ops, 0u);

    // Decommission engine A gracefully: stop probing, drain, migrate.
    t.agent_a_->StopProbing();
    while (!t.agent_a_->InstanceDrained(inst0)) {
      co_await t.app_thread_->Idle(Micros(10));
    }
    const auto migrated = t.registry_.StopEngine(t.engine_a_);
    EXPECT_EQ(migrated, std::vector<std::uint32_t>{inst0});
    EXPECT_EQ(t.registry_.EngineOf(inst0), t.engine_b_);
    EXPECT_EQ(t.registry_.live_engines(), 1u);

    // Phase 2: the same instance keeps working, now served by engine B
    // resuming from the exported red-block snapshot.
    const auto b_ops = t.agent_b_->ops_completed();
    for (int i = 0; i < 8; ++i) {
      const auto data = Pattern(200, 200 + i);
      t.f_.compute().mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, 0x40000 + i * 1024, 200);
      auto got = co_await t.ReadAndWait(0, 0x40000 + i * 1024, 200,
                                        kHeap + 0x10000);
      EXPECT_EQ(got, data) << "post-migration iteration " << i;
    }
    EXPECT_EQ(t.agent_a_->ops_completed(), a_ops);  // A stayed stopped
    EXPECT_GT(t.agent_b_->ops_completed(), b_ops);  // B took over
    t.f_.sim.Halt();
  }(*this, id0));
  f_.sim.Run();
}

TEST_F(MultiEngineTest, ExplicitReassignMovesLiveInstance) {
  const std::uint32_t id0 = clients_[0]->descriptor().instance_id;
  ASSERT_EQ(registry_.AddInstance(id0, engine_a_), engine_a_);

  f_.sim.Spawn([](MultiEngineTest& t, std::uint32_t inst0)
                   -> sim::Task<void> {
    const auto data = Pattern(300, 7);
    t.f_.compute().mem.Write(kHeap, data);
    co_await t.WriteAndWait(0, kHeap, 0x3000, 300);

    // Drain A before moving (lossless handoff), then Reassign.
    while (!t.agent_a_->InstanceDrained(inst0)) {
      co_await t.app_thread_->Idle(Micros(10));
    }
    EXPECT_TRUE(t.registry_.Reassign(inst0, t.engine_b_));
    EXPECT_EQ(t.registry_.EngineOf(inst0), t.engine_b_);

    auto got = co_await t.ReadAndWait(0, 0x3000, 300, kHeap + 0x10000);
    EXPECT_EQ(got, data);
    t.f_.sim.Halt();
  }(*this, id0));
  f_.sim.Run();
  EXPECT_GE(agent_b_->ops_completed(), 1u);
}

TEST_F(MultiEngineTest, MidFlightCrashMigratesWithoutLostOrDuplicatedWork) {
  // Unlike the graceful decommission above, the engine dies with an
  // operation in flight: no StopProbing, no InstanceDrained wait. The
  // conservative crash export plus the attach-time reconcile against the
  // published red block (which may have advanced between ExportProgress and
  // the survivor's attach) must neither lose the in-flight write nor apply
  // any completed one twice.
  const std::uint32_t inst = clients_[0]->descriptor().instance_id;
  offload::InstanceRegistry crash_reg;
  const auto crash_a = crash_reg.AddEngine(CrashBindingFor(*agent_a_, "crash-a"));
  const auto crash_b = crash_reg.AddEngine(CrashBindingFor(*agent_b_, "crash-b"));
  ASSERT_EQ(crash_reg.AddInstance(inst, crash_a), crash_a);

  f_.sim.Spawn([](MultiEngineTest& t, offload::InstanceRegistry& reg,
                  offload::EngineId ea, offload::EngineId eb,
                  std::uint32_t inst0) -> sim::Task<void> {
    // Durable pre-crash history: six completed writes.
    for (int i = 0; i < 6; ++i) {
      const auto data = Pattern(200, 300 + i);
      t.f_.compute().mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, i * 1024, 200);
    }
    const auto a_ops = t.agent_a_->ops_completed();
    EXPECT_GT(a_ops, 0u);

    // Post one more write, let A fetch its metadata but not finish it,
    // then kill A. The client has freed the metadata slot by then, so the
    // op survives only through the snapshot's pending list (or, if A had
    // not consumed it yet, through the survivor re-parsing the rings).
    auto& ctx = t.clients_[0]->thread(0);
    const auto inflight = Pattern(200, 399);
    t.f_.compute().mem.Write(kHeap + 0x1000, inflight);
    std::optional<ReqId> id;
    while (!(id = co_await ctx.AsyncWrite(*t.app_thread_, kRegion,
                                          kHeap + 0x1000, 6 * 1024, 200))) {
      co_await t.app_thread_->Idle(Micros(5));
    }
    co_await t.app_thread_->Idle(Micros(3));
    const auto migrated = reg.StopEngine(ea);
    EXPECT_EQ(migrated, std::vector<std::uint32_t>{inst0});
    EXPECT_EQ(reg.EngineOf(inst0), eb);
    EXPECT_EQ(reg.live_engines(), 1u);

    // The in-flight write still completes, exactly once, on the survivor.
    const core::PollId poll = ctx.PollCreate();
    ctx.PollAdd(poll, *id);
    for (;;) {
      auto done = co_await ctx.PollWait(*t.app_thread_, poll, 1, Millis(5));
      if (!done.empty()) break;
    }
    EXPECT_EQ(t.agent_a_->ops_completed(), a_ops);  // A is dead

    // Nothing lost: every pre-crash write and the in-flight one read back
    // intact through the survivor.
    for (int i = 0; i < 6; ++i) {
      auto got = co_await t.ReadAndWait(0, i * 1024, 200, kHeap + 0x10000);
      EXPECT_EQ(got, Pattern(200, 300 + i)) << "pre-crash write " << i;
    }
    auto got = co_await t.ReadAndWait(0, 6 * 1024, 200, kHeap + 0x10000);
    EXPECT_EQ(got, inflight);

    // Nothing duplicated: the rings stay in lockstep with the survivor's
    // resumed counters, so fresh traffic runs at full health.
    for (int i = 0; i < 4; ++i) {
      const auto data = Pattern(200, 500 + i);
      t.f_.compute().mem.Write(kHeap, data);
      co_await t.WriteAndWait(0, kHeap, 0x40000 + i * 1024, 200);
      auto back = co_await t.ReadAndWait(0, 0x40000 + i * 1024, 200,
                                         kHeap + 0x12000);
      EXPECT_EQ(back, data) << "post-crash iteration " << i;
    }
    t.f_.sim.Halt();
  }(*this, crash_reg, crash_a, crash_b, inst));
  f_.sim.Run();
  EXPECT_GE(agent_b_->ops_completed(), 1u);
}

}  // namespace
}  // namespace cowbird::spot
