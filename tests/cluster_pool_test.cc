// Elastic cluster pool (DESIGN.md §14): grow/shrink/spill semantics of the
// multi-server allocator, and the exactness of the translation table the
// P4 range-match stage and the spot agent both mirror.
#include <gtest/gtest.h>

#include <string>

#include "core/cluster_pool.h"
#include "core/instance.h"
#include "workload/fabric.h"

namespace cowbird::core {
namespace {

using workload::Fabric;

constexpr std::uint64_t kSlabA = 0x100000;
constexpr std::uint64_t kSlabB = 0x900000;
constexpr std::uint64_t kVbase = 0x4000'0000;
constexpr std::uint16_t kRegion = 7;

class ClusterPoolTest : public ::testing::Test {
 protected:
  Fabric f_{workload::ChaosTopology()};
  ClusterPool pool_;
};

TEST_F(ClusterPoolTest, SingleServerRegionIsOneIdentityRange) {
  pool_.AddServer(f_.memory().dev, kSlabA, KiB(64));
  const auto region = pool_.AllocateRegion(kRegion, kVbase, KiB(16),
                                           workload::kMemoryId);
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->region_id, kRegion);
  EXPECT_EQ(region->remote_base, kVbase);
  EXPECT_EQ(region->size, KiB(16));
  const auto ranges = pool_.RangesFor(kRegion);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].node, workload::kMemoryId);
  EXPECT_EQ(ranges[0].length, KiB(16));
}

TEST_F(ClusterPoolTest, ExhaustedPreferredServerSpillsToTheNext) {
  pool_.AddServer(f_.memory().dev, kSlabA, KiB(16));
  pool_.AddServer(f_.spot().dev, kSlabB, MiB(1));
  // 64 KiB region into a 16 KiB preferred slab: the head lands on the
  // preferred server, the tail spills — two ranges, contiguous virtually.
  const auto region = pool_.AllocateRegion(kRegion, kVbase, KiB(64),
                                           workload::kMemoryId);
  ASSERT_TRUE(region.has_value());
  const auto ranges = pool_.RangesFor(kRegion);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].node, workload::kMemoryId);
  EXPECT_EQ(ranges[0].length, KiB(16));
  EXPECT_EQ(ranges[1].node, workload::kSpotId);
  EXPECT_EQ(ranges[1].length, KiB(48));
  EXPECT_EQ(ranges[0].vbase + ranges[0].length, ranges[1].vbase);
}

TEST_F(ClusterPoolTest, AllocationTooBigForTheWholeClusterLeaksNothing) {
  pool_.AddServer(f_.memory().dev, kSlabA, KiB(16));
  pool_.AddServer(f_.spot().dev, kSlabB, KiB(16));
  EXPECT_FALSE(
      pool_.AllocateRegion(kRegion, kVbase, KiB(64), workload::kMemoryId)
          .has_value());
  // Nothing was carved: the full capacity is still allocatable.
  EXPECT_TRUE(
      pool_.AllocateRegion(kRegion, kVbase, KiB(32), workload::kMemoryId)
          .has_value());
}

TEST_F(ClusterPoolTest, ShrinkRefusesWhileRangesAreLiveAndNamesThem) {
  pool_.AddServer(f_.memory().dev, kSlabA, KiB(64));
  pool_.AddServer(f_.spot().dev, kSlabB, KiB(64));
  ASSERT_TRUE(pool_.AllocateRegion(kRegion, kVbase, KiB(16),
                                   workload::kMemoryId)
                  .has_value());
  std::string error;
  EXPECT_FALSE(pool_.RemoveServer(workload::kMemoryId, &error));
  // The refusal names the squatting region so the operator knows what to
  // migrate first.
  EXPECT_NE(error.find("region 7"), std::string::npos) << error;
  // The idle server shrinks fine; after releasing the region, so does the
  // occupied one.
  EXPECT_TRUE(pool_.RemoveServer(workload::kSpotId));
  pool_.ReleaseRegion(kRegion);
  EXPECT_TRUE(pool_.RemoveServer(workload::kMemoryId, &error)) << error;
  EXPECT_TRUE(pool_.servers().empty());
}

TEST_F(ClusterPoolTest, TranslationResolvesFirstAndLastByteOfEachRange) {
  pool_.AddServer(f_.memory().dev, kSlabA, KiB(16));
  pool_.AddServer(f_.spot().dev, kSlabB, MiB(1));
  ASSERT_TRUE(pool_.AllocateRegion(kRegion, kVbase, KiB(32),
                                   workload::kMemoryId)
                  .has_value());
  // First byte of the region.
  auto t = pool_.table().Lookup(kRegion, kVbase, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, workload::kMemoryId);
  EXPECT_EQ(t->addr, kSlabA);
  // Last byte of the preferred range.
  t = pool_.table().Lookup(kRegion, kVbase + KiB(16) - 1, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, workload::kMemoryId);
  EXPECT_EQ(t->addr, kSlabA + KiB(16) - 1);
  // First byte past the boundary resolves to the spill server.
  t = pool_.table().Lookup(kRegion, kVbase + KiB(16), 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, workload::kSpotId);
  EXPECT_EQ(t->addr, kSlabB);
  // Last byte of the region.
  t = pool_.table().Lookup(kRegion, kVbase + KiB(32) - 1, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, workload::kSpotId);
  // An access straddling the range boundary must not silently resolve to
  // the first range.
  TranslateError error;
  EXPECT_FALSE(
      pool_.table().Lookup(kRegion, kVbase + KiB(16) - 8, 16, &error)
          .has_value());
  EXPECT_EQ(error.kind, TranslateError::Kind::kStraddle);
}

TEST_F(ClusterPoolTest, UnmappedHoleFailsWithAStructuredError) {
  pool_.AddServer(f_.memory().dev, kSlabA, MiB(1));
  ASSERT_TRUE(pool_.AllocateRegion(kRegion, kVbase, KiB(16),
                                   workload::kMemoryId)
                  .has_value());
  ASSERT_TRUE(pool_.AllocateRegion(kRegion + 1, kVbase + MiB(16), KiB(16),
                                   workload::kMemoryId)
                  .has_value());
  TranslateError error;
  EXPECT_FALSE(pool_.table()
                   .Lookup(kRegion, kVbase + MiB(8), 64, &error)
                   .has_value());
  EXPECT_EQ(error.kind, TranslateError::Kind::kUnmappedHole);
  EXPECT_TRUE(error.has_below);
  // The report names the faulting address and the nearest mapped ranges,
  // page-fault style.
  const std::string text = error.ToString();
  EXPECT_NE(text.find("hole"), std::string::npos) << text;
  // Unknown region id is its own kind.
  EXPECT_FALSE(
      pool_.table().Lookup(kRegion + 9, kVbase, 64, &error).has_value());
  EXPECT_EQ(error.kind, TranslateError::Kind::kUnknownRegion);
}

TEST_F(ClusterPoolTest, CommitMoveRetargetsAtomicallyAndFreesTheSource) {
  pool_.AddServer(f_.memory().dev, kSlabA, KiB(64));
  pool_.AddServer(f_.spot().dev, kSlabB, KiB(64));
  ASSERT_TRUE(pool_.AllocateRegion(kRegion, kVbase, KiB(16),
                                   workload::kMemoryId)
                  .has_value());
  const auto plan = pool_.PlanMove(kRegion, kVbase, workload::kSpotId);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->src_node, workload::kMemoryId);
  EXPECT_EQ(plan->dst_node, workload::kSpotId);
  // Before the commit every lookup still resolves to the source.
  EXPECT_EQ(pool_.table().Lookup(kRegion, kVbase, 1)->node,
            workload::kMemoryId);
  pool_.CommitMove(*plan);
  EXPECT_EQ(pool_.table().Lookup(kRegion, kVbase, 1)->node,
            workload::kSpotId);
  // The source extent was released: the source server is now removable.
  EXPECT_TRUE(pool_.RemoveServer(workload::kMemoryId));
}

TEST_F(ClusterPoolTest, AbortMoveReleasesTheReservedDestination) {
  pool_.AddServer(f_.memory().dev, kSlabA, KiB(64));
  pool_.AddServer(f_.spot().dev, kSlabB, KiB(16));
  ASSERT_TRUE(pool_.AllocateRegion(kRegion, kVbase, KiB(16),
                                   workload::kMemoryId)
                  .has_value());
  const auto plan = pool_.PlanMove(kRegion, kVbase, workload::kSpotId);
  ASSERT_TRUE(plan.has_value());
  // The destination slab is fully reserved: a second plan cannot fit.
  EXPECT_FALSE(
      pool_.PlanMove(kRegion, kVbase, workload::kSpotId).has_value());
  pool_.AbortMove(*plan);
  EXPECT_TRUE(
      pool_.PlanMove(kRegion, kVbase, workload::kSpotId).has_value());
}

TEST_F(ClusterPoolTest, DescriptorShipsClusterRangesToTheEngineMirror) {
  pool_.AddServer(f_.memory().dev, kSlabA, KiB(16));
  pool_.AddServer(f_.spot().dev, kSlabB, MiB(1));
  const auto region = pool_.AllocateRegion(kRegion, kVbase, KiB(32),
                                           workload::kMemoryId);
  ASSERT_TRUE(region.has_value());
  InstanceDescriptor desc;
  desc.regions.push_back(*region);
  desc.ranges = pool_.RangesFor(kRegion);
  const TranslationTable mirror = desc.BuildTranslation();
  ASSERT_EQ(mirror.size(), 2u);
  EXPECT_EQ(mirror.Lookup(kRegion, kVbase + KiB(16), 1)->node,
            workload::kSpotId);

  // Without explicit ranges the mirror falls back to identity mapping —
  // the pre-elastic-pool behavior every legacy caller still relies on.
  InstanceDescriptor legacy;
  legacy.regions.push_back(RegionInfo{kRegion, workload::kMemoryId,
                                      kVbase, region->rkey, KiB(32)});
  const TranslationTable identity = legacy.BuildTranslation();
  const auto t = identity.Lookup(kRegion, kVbase + 100, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->node, workload::kMemoryId);
  EXPECT_EQ(t->addr, kVbase + 100);
}

}  // namespace
}  // namespace cowbird::core
