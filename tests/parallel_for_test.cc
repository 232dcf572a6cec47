// The sweep-parallelism contract of sim/parallel.h: ParallelFor runs every
// index exactly once for any job count, and a sweep of independent
// simulations produces the same per-index outcomes no matter how many
// workers ran it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/parallel.h"
#include "workload/hash_workload.h"

namespace cowbird {
namespace {

TEST(ParallelForTest, EveryIndexExactlyOnceForAnyJobCount) {
  for (int jobs : {1, 2, 8, 64}) {
    constexpr int kN = 500;
    std::vector<std::atomic<int>> hits(kN);
    sim::ParallelFor(jobs, kN,
                     [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " with jobs=" << jobs;
    }
  }
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  std::atomic<int> calls{0};
  sim::ParallelFor(4, 0, [&](int) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, HardwareJobsIsPositive) {
  EXPECT_GE(sim::HardwareJobs(), 1);
  EXPECT_EQ(sim::HardwareJobs(), sim::MaxParallelism());
}

// Each index runs a private deterministic simulation; the per-index results
// must not depend on how many workers executed the sweep.
TEST(ParallelForTest, SweepOutcomesIndependentOfJobCount) {
  auto sweep = [](int jobs) {
    std::vector<std::uint64_t> ops(4, 0);
    sim::ParallelFor(jobs, 4, [&](int i) {
      workload::HashWorkloadConfig c;
      c.paradigm = workload::Paradigm::kCowbird;
      c.threads = 2;
      c.record_size = 64;
      c.records = 50'000;
      c.local_fraction = 0;
      c.warmup = Micros(100);
      c.measure = Micros(400);
      c.seed = static_cast<std::uint64_t>(i) + 1;
      ops[static_cast<std::size_t>(i)] = workload::RunHashWorkload(c).ops;
    });
    return ops;
  };
  const std::vector<std::uint64_t> serial = sweep(1);
  for (std::uint64_t o : serial) EXPECT_GT(o, 0u);
  EXPECT_EQ(sweep(2), serial);
  EXPECT_EQ(sweep(8), serial);
}

}  // namespace
}  // namespace cowbird
