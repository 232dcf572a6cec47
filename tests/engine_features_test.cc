// Coverage for engine features outside the core data path: multiple
// instances per spot agent, multiple memory regions per instance, and the
// adaptive probe ramp-up in both engines.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/client.h"
#include "p4/engine.h"
#include "spot/agent.h"
#include "spot/setup.h"
#include "workload/fabric.h"

namespace cowbird {
namespace {

using core::CowbirdClient;
using core::ReqId;
using workload::Fabric;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;
constexpr net::NodeId kSwitchId = 100;

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  return data;
}

// One read through a client/region, waiting for completion.
sim::Task<std::vector<std::uint8_t>> ReadVia(Fabric& f,
                                             CowbirdClient& client,
                                             sim::SimThread& thread,
                                             std::uint16_t region,
                                             std::uint64_t offset,
                                             std::uint32_t len,
                                             std::uint64_t dest) {
  auto& ctx = client.thread(0);
  std::optional<ReqId> id;
  while (!(id = co_await ctx.AsyncRead(thread, region, offset, dest, len))) {
    co_await thread.Idle(Micros(5));
  }
  const core::PollId poll = ctx.PollCreate();
  ctx.PollAdd(poll, *id);
  while ((co_await ctx.PollWait(thread, poll, 1, Millis(5))).empty()) {
  }
  std::vector<std::uint8_t> out(len);
  f.compute().mem.Read(dest, out);
  co_return out;
}

TEST(SpotMultiInstance, TwoClientsOneAgent) {
  Fabric f{workload::ChaosTopology()};
  const auto* pool_mr = f.memory().dev.RegisterMemory(kPoolBase, MiB(64));

  spot::SpotAgent agent(f.spot().dev, f.spot().machine,
                        spot::SpotAgent::Config{});
  std::vector<std::unique_ptr<CowbirdClient>> clients;
  for (int i = 0; i < 2; ++i) {
    CowbirdClient::Config cc;
    cc.layout.base = 0x10000 + static_cast<std::uint64_t>(i) * MiB(8);
    cc.layout.threads = 1;
    clients.push_back(std::make_unique<CowbirdClient>(f.compute().dev, cc));
    clients.back()->RegisterRegion(core::RegionInfo{
        1, workload::kMemoryId, kPoolBase, pool_mr->rkey, MiB(64)});
    rdma::Device* memories[] = {&f.memory().dev};
    auto conn =
        spot::ConnectSpotEngine(f.spot().dev, f.compute().dev, memories);
    agent.AddInstance(clients.back()->descriptor(), conn.to_compute,
                      conn.compute_cq, conn.to_memory, conn.memory_cqs);
  }
  agent.Start();

  const auto d0 = Pattern(128, 1);
  const auto d1 = Pattern(128, 2);
  f.memory().mem.Write(kPoolBase + 0x1000, d0);
  f.memory().mem.Write(kPoolBase + 0x2000, d1);

  sim::SimThread thread(f.compute().machine, "app");
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    f.sim.Spawn([](Fabric& ff, CowbirdClient& cl, sim::SimThread& thr,
                   std::uint64_t off, std::uint64_t dest, int& count)
                    -> sim::Task<void> {
      (void)co_await ReadVia(ff, cl, thr, 1, off, 128, dest);
      if (++count == 2) ff.sim.Halt();
    }(f, *clients[i], thread, 0x1000 + i * 0x1000ull, kHeap + i * 4096,
      done));
  }
  f.sim.Run();
  ASSERT_EQ(done, 2);
  std::vector<std::uint8_t> out0(128), out1(128);
  f.compute().mem.Read(kHeap, out0);
  f.compute().mem.Read(kHeap + 4096, out1);
  EXPECT_EQ(out0, d0);
  EXPECT_EQ(out1, d1);
  EXPECT_EQ(agent.ops_completed(), 2u);
}

TEST(MultiRegion, TwoRegionsOneInstance) {
  Fabric f{workload::ChaosTopology()};
  const auto* mr_a = f.memory().dev.RegisterMemory(kPoolBase, MiB(16));
  const auto* mr_b = f.memory().dev.RegisterMemory(0x4000000, MiB(16));

  CowbirdClient::Config cc;
  cc.layout.base = 0x10000;
  cc.layout.threads = 1;
  CowbirdClient client(f.compute().dev, cc);
  client.RegisterRegion(core::RegionInfo{1, workload::kMemoryId, kPoolBase,
                                         mr_a->rkey, MiB(16)});
  client.RegisterRegion(core::RegionInfo{2, workload::kMemoryId, 0x4000000,
                                         mr_b->rkey, MiB(16)});

  spot::SpotAgent agent(f.spot().dev, f.spot().machine,
                        spot::SpotAgent::Config{});
  rdma::Device* memories[] = {&f.memory().dev};
  auto conn = spot::ConnectSpotEngine(f.spot().dev, f.compute().dev, memories);
  agent.AddInstance(client.descriptor(), conn.to_compute, conn.compute_cq,
                    conn.to_memory, conn.memory_cqs);
  agent.Start();

  const auto da = Pattern(100, 3);
  const auto db = Pattern(100, 4);
  f.memory().mem.Write(kPoolBase + 64, da);
  f.memory().mem.Write(0x4000000 + 64, db);

  sim::SimThread thread(f.compute().machine, "app");
  f.sim.Spawn([](Fabric& ff, CowbirdClient& cl,
                 sim::SimThread& thr) -> sim::Task<void> {
    auto a = co_await ReadVia(ff, cl, thr, 1, 64, 100, kHeap);
    auto b = co_await ReadVia(ff, cl, thr, 2, 64, 100, kHeap + 4096);
    (void)a;
    (void)b;
    ff.sim.Halt();
  }(f, client, thread));
  f.sim.Run();

  std::vector<std::uint8_t> oa(100), ob(100);
  f.compute().mem.Read(kHeap, oa);
  f.compute().mem.Read(kHeap + 4096, ob);
  EXPECT_EQ(oa, da);
  EXPECT_EQ(ob, db);
}

TEST(AdaptiveProbe, SpotBacksOffWhenIdleAndSnapsBack) {
  Fabric f{workload::ChaosTopology()};
  const auto* pool_mr = f.memory().dev.RegisterMemory(kPoolBase, MiB(16));
  CowbirdClient::Config cc;
  cc.layout.base = 0x10000;
  cc.layout.threads = 1;
  CowbirdClient client(f.compute().dev, cc);
  client.RegisterRegion(core::RegionInfo{1, workload::kMemoryId, kPoolBase,
                                         pool_mr->rkey, MiB(16)});
  spot::SpotAgent::Config ac;
  ac.adaptive_probe = true;
  ac.probe_interval = Micros(2);
  ac.probe_interval_max = Micros(64);
  spot::SpotAgent agent(f.spot().dev, f.spot().machine, ac);
  rdma::Device* memories[] = {&f.memory().dev};
  auto conn = spot::ConnectSpotEngine(f.spot().dev, f.compute().dev, memories);
  agent.AddInstance(client.descriptor(), conn.to_compute, conn.compute_cq,
                    conn.to_memory, conn.memory_cqs);
  agent.Start();

  // Idle for a while: the interval must ramp to the maximum.
  f.sim.RunFor(Millis(1));
  EXPECT_EQ(agent.current_probe_interval(), Micros(64));
  const auto idle_probes = agent.probes_sent();
  // Far fewer probes than the 500 a fixed 2 us interval would have sent.
  EXPECT_LT(idle_probes, 60u);

  // Activity: reads must still complete, and once the probe loop wakes and
  // observes the activity, the interval snaps back toward the baseline.
  sim::SimThread thread(f.compute().machine, "app");
  f.sim.Spawn([](Fabric& ff, CowbirdClient& cl,
                 sim::SimThread& thr) -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      (void)co_await ReadVia(ff, cl, thr, 1, i * 64, 64, kHeap);
    }
    ff.sim.Halt();
  }(f, client, thread));
  f.sim.Run();
  // Allow a couple of idle doublings between the last activity and Halt.
  EXPECT_LE(agent.current_probe_interval(), Micros(16));
  EXPECT_EQ(agent.ops_completed(), 4u);
}

TEST(AdaptiveProbe, P4BacksOffWhenIdle) {
  Fabric f{workload::ChaosTopology()};
  const auto* pool_mr = f.memory().dev.RegisterMemory(kPoolBase, MiB(16));
  CowbirdClient::Config cc;
  cc.layout.base = 0x10000;
  cc.layout.threads = 1;
  CowbirdClient client(f.compute().dev, cc);
  client.RegisterRegion(core::RegionInfo{1, workload::kMemoryId, kPoolBase,
                                         pool_mr->rkey, MiB(16)});
  p4::CowbirdP4Engine::Config ec;
  ec.switch_node_id = kSwitchId;
  ec.adaptive_probe = true;
  ec.probe_interval_max = Micros(64);
  p4::CowbirdP4Engine engine(f.sw(), ec);
  auto conn = p4::ConnectP4Engine(engine, kSwitchId, f.compute().dev,
                                  f.memory().dev, 0x800);
  engine.AddInstance(client.descriptor(), conn);
  engine.Start();

  f.sim.RunFor(Millis(1));
  const auto idle_probes = engine.probes_sent();
  EXPECT_LT(idle_probes, 60u);  // ~500 at the fixed 2 us rate

  // A request still completes despite the ramped-down interval.
  sim::SimThread thread(f.compute().machine, "app");
  f.sim.Spawn([](Fabric& ff, CowbirdClient& cl,
                 sim::SimThread& thr) -> sim::Task<void> {
    (void)co_await ReadVia(ff, cl, thr, 1, 0, 64, kHeap);
    ff.sim.Halt();
  }(f, client, thread));
  f.sim.Run();
  EXPECT_EQ(engine.ops_completed(), 1u);
}

}  // namespace
}  // namespace cowbird
