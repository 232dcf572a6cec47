// Tests for the convenience API (implicit notification groups, select
// semantics) and the pool-side region allocator.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/convenience.h"
#include "core/region_allocator.h"
#include "spot/agent.h"
#include "spot/setup.h"
#include "workload/fabric.h"

namespace cowbird::core {
namespace {

using workload::Fabric;

constexpr std::uint64_t kPoolBase = 0x100000;
constexpr std::uint64_t kHeap = 0x4000000;

// ---------------------------------------------------------------------------
// RegionAllocator
// ---------------------------------------------------------------------------

TEST(RegionAllocator, AllocateReleaseCoalesce) {
  Fabric f{workload::ChaosTopology()};
  RegionAllocator pool(f.memory().dev, kPoolBase, MiB(1));

  auto a = pool.Allocate(1, KiB(256));
  auto b = pool.Allocate(2, KiB(256));
  auto c = pool.Allocate(3, KiB(256));
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->remote_base, kPoolBase);
  EXPECT_EQ(b->remote_base, kPoolBase + KiB(256));
  EXPECT_EQ(pool.allocated(), KiB(768));
  EXPECT_EQ(a->rkey, pool.rkey());

  // Release the middle: fragment count grows.
  pool.Release(*b);
  EXPECT_EQ(pool.fragments(), 2u);
  // A request larger than any fragment fails even though total free fits.
  EXPECT_FALSE(pool.Allocate(4, KiB(512)).has_value());
  // Release neighbours: everything coalesces back into one extent.
  pool.Release(*a);
  pool.Release(*c);
  EXPECT_EQ(pool.fragments(), 1u);
  EXPECT_EQ(pool.allocated(), 0u);
  auto big = pool.Allocate(5, MiB(1));
  EXPECT_TRUE(big.has_value());
}

TEST(RegionAllocator, ExhaustionReturnsNullopt) {
  Fabric f{workload::ChaosTopology()};
  RegionAllocator pool(f.memory().dev, kPoolBase, KiB(128));
  EXPECT_TRUE(pool.Allocate(1, KiB(128)).has_value());
  EXPECT_FALSE(pool.Allocate(2, 64).has_value());
}

TEST(RegionAllocator, AllocatedRegionServesRdma) {
  // End-to-end: a region carved by the allocator is directly usable as a
  // Cowbird region (the rkey resolves on the memory node).
  Fabric f{workload::ChaosTopology()};
  RegionAllocator pool(f.memory().dev, kPoolBase, MiB(8));
  auto region = pool.Allocate(1, MiB(1));
  ASSERT_TRUE(region.has_value());

  CowbirdClient::Config cc;
  cc.layout.base = 0x10000;
  cc.layout.threads = 1;
  CowbirdClient client(f.compute().dev, cc);
  client.RegisterRegion(*region);

  spot::SpotAgent agent(f.spot().dev, f.spot().machine,
                        spot::SpotAgent::Config{});
  rdma::Device* memories[] = {&f.memory().dev};
  auto conn = spot::ConnectSpotEngine(f.spot().dev, f.compute().dev, memories);
  agent.AddInstance(client.descriptor(), conn.to_compute, conn.compute_cq,
                    conn.to_memory, conn.memory_cqs);
  agent.Start();

  std::vector<std::uint8_t> data(64, 0x5C);
  f.memory().mem.Write(region->remote_base + 128, data);

  sim::SimThread thread(f.compute().machine, "app");
  bool ok = false;
  f.sim.Spawn([](Fabric& ff, CowbirdClient& cl, sim::SimThread& thr,
                 bool& out) -> sim::Task<void> {
    ImplicitGroup group(cl.thread(0));
    out = co_await group.ReadSync(thr, 1, 128, kHeap, 64);
    ff.sim.Halt();
  }(f, client, thread, ok));
  f.sim.Run();
  EXPECT_TRUE(ok);
  std::vector<std::uint8_t> out(64);
  f.compute().mem.Read(kHeap, out);
  EXPECT_EQ(out, data);
}

// ---------------------------------------------------------------------------
// ImplicitGroup / select semantics
// ---------------------------------------------------------------------------

class ConvenienceTest : public ::testing::Test {
 public:
  ConvenienceTest() {
    pool_mr_ = f_.memory().dev.RegisterMemory(kPoolBase, MiB(16));
    CowbirdClient::Config cc;
    cc.layout.base = 0x10000;
    cc.layout.threads = 1;
    client_ = std::make_unique<CowbirdClient>(f_.compute().dev, cc);
    client_->RegisterRegion(RegionInfo{1, workload::kMemoryId, kPoolBase,
                                       pool_mr_->rkey, MiB(16)});
    agent_ = std::make_unique<spot::SpotAgent>(f_.spot().dev, f_.spot().machine,
                                               spot::SpotAgent::Config{});
    rdma::Device* memories[] = {&f_.memory().dev};
    auto conn = spot::ConnectSpotEngine(f_.spot().dev, f_.compute().dev,
                                        memories);
    agent_->AddInstance(client_->descriptor(), conn.to_compute,
                        conn.compute_cq, conn.to_memory, conn.memory_cqs);
    agent_->Start();
  }

  Fabric f_{workload::ChaosTopology()};
  const rdma::MemoryRegion* pool_mr_;
  std::unique_ptr<CowbirdClient> client_;
  std::unique_ptr<spot::SpotAgent> agent_;
};

TEST_F(ConvenienceTest, SelectReturnsCompletionsOneByOne) {
  sim::SimThread thread(f_.compute().machine, "app");
  int selected = 0;
  f_.sim.Spawn([](ConvenienceTest& t, sim::SimThread& thr,
                  int& count) -> sim::Task<void> {
    ImplicitGroup group(t.client_->thread(0));
    for (int i = 0; i < 5; ++i) {
      auto id = co_await group.Read(thr, 1, i * 256, kHeap + i * 256, 64);
      EXPECT_TRUE(id.has_value());
    }
    EXPECT_EQ(group.outstanding(), 5);
    while (count < 5) {
      auto done = co_await group.Select(thr, Millis(5));
      if (done.has_value()) ++count;
    }
    EXPECT_EQ(group.outstanding(), 0);
    t.f_.sim.Halt();
  }(*this, thread, selected));
  f_.sim.Run();
  EXPECT_EQ(selected, 5);
}

TEST_F(ConvenienceTest, SelectTimesOutWhenNothingPending) {
  sim::SimThread thread(f_.compute().machine, "app");
  bool timed_out = false;
  f_.sim.Spawn([](ConvenienceTest& t, sim::SimThread& thr,
                  bool& out) -> sim::Task<void> {
    ImplicitGroup group(t.client_->thread(0));
    const Nanos before = t.f_.sim.Now();
    auto done = co_await group.Select(thr, Micros(50));
    out = !done.has_value() && t.f_.sim.Now() >= before + Micros(50);
    t.f_.sim.Halt();
  }(*this, thread, timed_out));
  f_.sim.Run();
  EXPECT_TRUE(timed_out);
}

TEST_F(ConvenienceTest, WaitForSpecificRequestSkipsOthers) {
  sim::SimThread thread(f_.compute().machine, "app");
  bool ok = false;
  f_.sim.Spawn([](ConvenienceTest& t, sim::SimThread& thr,
                  bool& out) -> sim::Task<void> {
    ImplicitGroup group(t.client_->thread(0));
    (void)co_await group.Read(thr, 1, 0, kHeap, 64);
    (void)co_await group.Read(thr, 1, 256, kHeap + 256, 64);
    auto last = co_await group.Read(thr, 1, 512, kHeap + 512, 64);
    EXPECT_TRUE(last.has_value());
    // Waiting for the LAST request implies the first two were harvested
    // along the way (per-type FIFO completion).
    out = co_await group.WaitFor(thr, *last, Millis(5));
    t.f_.sim.Halt();
  }(*this, thread, ok));
  f_.sim.Run();
  EXPECT_TRUE(ok);
}

TEST_F(ConvenienceTest, ReadSyncMovesRealBytes) {
  std::vector<std::uint8_t> data(200);
  Rng rng(5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  f_.memory().mem.Write(kPoolBase + 0x3000, data);

  sim::SimThread thread(f_.compute().machine, "app");
  bool ok = false;
  f_.sim.Spawn([](ConvenienceTest& t, sim::SimThread& thr,
                  bool& out) -> sim::Task<void> {
    ImplicitGroup group(t.client_->thread(0));
    out = co_await group.ReadSync(thr, 1, 0x3000, kHeap, 200);
    t.f_.sim.Halt();
  }(*this, thread, ok));
  f_.sim.Run();
  ASSERT_TRUE(ok);
  std::vector<std::uint8_t> out(200);
  f_.compute().mem.Read(kHeap, out);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace cowbird::core
