// Unit tests for the shared offload-engine core: hazard policies, probe
// scheduling, red-block packing, and the instance registry.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "offload/hazard_tracker.h"
#include "offload/probe_scheduler.h"
#include "offload/progress.h"
#include "offload/registry.h"

namespace cowbird::offload {
namespace {

constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();

// ---------------------------------------------------------------- hazards

TEST(RangesOverlap, BasicAndAdjacent) {
  const HazardRange w{1, 100, 100};  // [100, 200)
  EXPECT_TRUE(RangesOverlap(w, HazardRange{1, 150, 10}));
  EXPECT_TRUE(RangesOverlap(w, HazardRange{1, 199, 50}));
  EXPECT_TRUE(RangesOverlap(w, HazardRange{1, 50, 51}));
  // Adjacent-but-not-overlapping: half-open ranges sharing an endpoint.
  EXPECT_FALSE(RangesOverlap(w, HazardRange{1, 0, 100}));
  EXPECT_FALSE(RangesOverlap(w, HazardRange{1, 200, 100}));
}

TEST(RangesOverlap, DifferentRegionsNeverOverlap) {
  EXPECT_FALSE(RangesOverlap(HazardRange{1, 100, 100},
                             HazardRange{2, 100, 100}));
}

TEST(RangesOverlap, ZeroLengthIsEmpty) {
  const HazardRange w{1, 100, 100};
  EXPECT_FALSE(RangesOverlap(w, HazardRange{1, 150, 0}));
  EXPECT_FALSE(RangesOverlap(HazardRange{1, 150, 0}, w));
  EXPECT_FALSE(RangesOverlap(HazardRange{1, 0, 0}, HazardRange{1, 0, 0}));
}

TEST(RangesOverlap, WrappingRanges) {
  // [2^64-10, 2^64) ∪ [0, 10): a ring-wrap range.
  const HazardRange wrap{1, kTop - 9, 20};
  EXPECT_TRUE(RangesOverlap(wrap, HazardRange{1, 5, 2}));        // low piece
  EXPECT_TRUE(RangesOverlap(wrap, HazardRange{1, kTop - 5, 2}));  // high piece
  EXPECT_TRUE(RangesOverlap(wrap, HazardRange{1, kTop, 1}));      // top byte
  EXPECT_FALSE(RangesOverlap(wrap, HazardRange{1, 10, 100}));     // the gap
  // Two wrapping ranges always share the top byte.
  EXPECT_TRUE(RangesOverlap(wrap, HazardRange{1, kTop - 100, 200}));
}

TEST(HazardTracker, ExactRangeBlocksOnlyOverlappingReads) {
  HazardTracker t(HazardTracker::Policy::kExactRange);
  const auto ticket = t.AdmitWrite(HazardRange{1, 0x1000, 0x100});
  EXPECT_TRUE(t.ReadBlocked(HazardRange{1, 0x1080, 8}));
  EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x2000, 8}));
  EXPECT_FALSE(t.ReadBlocked(HazardRange{2, 0x1080, 8}));  // other region
  EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x1080, 0}));  // zero-length read
  t.RetireWrite(ticket);
  EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x1080, 8}));
  EXPECT_EQ(t.active_writes(), 0u);
}

TEST(HazardTracker, FenceBlocksEveryReadWhileAnyWriteInFlight) {
  HazardTracker t(HazardTracker::Policy::kFenceAllReads);
  const auto ticket = t.AdmitWrite(HazardRange{1, 0x1000, 0x100});
  // The fence ignores ranges entirely (Section 5.3: the RMT pipeline cannot
  // range-compare), so even disjoint and zero-length reads pause.
  EXPECT_TRUE(t.ReadBlocked(HazardRange{1, 0x9000, 8}));
  EXPECT_TRUE(t.ReadBlocked(HazardRange{2, 0x1000, 8}));
  EXPECT_TRUE(t.ReadBlocked(HazardRange{1, 0, 0}));
  t.RetireWrite(ticket);
  EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x1000, 8}));
}

TEST(HazardTracker, ReadsOnlyStallOnEarlierWrites) {
  for (const auto policy : {HazardTracker::Policy::kFenceAllReads,
                            HazardTracker::Policy::kExactRange}) {
    HazardTracker t(policy);
    const auto frontier = t.ReadFrontier();  // read probed now
    t.AdmitWrite(HazardRange{1, 0x1000, 0x100});  // write probed later
    EXPECT_FALSE(t.ReadBlocked(HazardRange{1, 0x1000, 8}, frontier))
        << "policy " << static_cast<int>(policy);
    // A read probed after the write does stall.
    EXPECT_TRUE(t.ReadBlocked(HazardRange{1, 0x1000, 8}, t.ReadFrontier()));
  }
}

TEST(HazardTracker, FenceStallsSupersetOfExactRange) {
  // Property (randomized): whatever the write set, any read the exact
  // policy stalls is also stalled by the fence policy.
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    HazardTracker fence(HazardTracker::Policy::kFenceAllReads);
    HazardTracker exact(HazardTracker::Policy::kExactRange);
    const int writes = static_cast<int>(rng.Below(4));
    for (int w = 0; w < writes; ++w) {
      const HazardRange range{static_cast<std::uint16_t>(rng.Below(2)),
                              rng.Below(0x1000),
                              rng.Below(0x200)};
      fence.AdmitWrite(range);
      exact.AdmitWrite(range);
    }
    const HazardRange read{static_cast<std::uint16_t>(rng.Below(2)),
                           rng.Below(0x1000), rng.Below(0x200)};
    if (exact.ReadBlocked(read)) {
      EXPECT_TRUE(fence.ReadBlocked(read))
          << "trial " << trial << ": exact stalled a read the fence passed";
    }
  }
}

// -------------------------------------------------------------- scheduler

TEST(ProbeScheduler, NonAdaptiveIntervalIsFixed) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), false, Micros(64),
                                          ProbeSelection::kRoundRobin});
  s.OnProbeOutcome(false);
  s.OnProbeOutcome(false);
  EXPECT_EQ(s.current_interval(), Micros(2));
}

TEST(ProbeScheduler, AdaptiveRampDoublesAndSnapsBack) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), true, Micros(16),
                                          ProbeSelection::kRoundRobin});
  EXPECT_EQ(s.current_interval(), Micros(2));
  s.OnProbeOutcome(false);
  EXPECT_EQ(s.current_interval(), Micros(4));
  s.OnProbeOutcome(false);
  EXPECT_EQ(s.current_interval(), Micros(8));
  s.OnProbeOutcome(false);
  s.OnProbeOutcome(false);  // capped at interval_max
  EXPECT_EQ(s.current_interval(), Micros(16));
  s.OnProbeOutcome(true);  // activity: snap back to the baseline
  EXPECT_EQ(s.current_interval(), Micros(2));
}

TEST(ProbeScheduler, RoundRobinCyclesAndMayReturnIneligible) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), false, Micros(64),
                                          ProbeSelection::kRoundRobin});
  std::vector<ProbeScheduler::Candidate> c(3);
  c[1].eligible = false;  // probe in flight: the TDM slot is still consumed
  EXPECT_EQ(s.PickNext(c), 0u);
  EXPECT_EQ(s.PickNext(c), 1u);  // caller checks eligibility and skips
  EXPECT_EQ(s.PickNext(c), 2u);
  EXPECT_EQ(s.PickNext(c), 0u);
}

TEST(ProbeScheduler, ActivityWeightedPrefersBusiestThreeOfFourTicks) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), false, Micros(64),
                                          ProbeSelection::kActivityWeighted});
  std::vector<ProbeScheduler::Candidate> c(3);
  c[2].activity_credit = 100;
  EXPECT_EQ(s.PickNext(c), 0u);  // tick 0: round-robin pass
  EXPECT_EQ(s.PickNext(c), 2u);  // ticks 1..3: busiest instance
  EXPECT_EQ(s.PickNext(c), 2u);
  EXPECT_EQ(s.PickNext(c), 2u);
  EXPECT_EQ(s.PickNext(c), 1u);  // tick 4: round-robin slot 4 % 3
}

TEST(ProbeScheduler, WeightedFallsBackToRoundRobinWhenNoneEligible) {
  ProbeScheduler s(ProbeScheduler::Config{Micros(2), false, Micros(64),
                                          ProbeSelection::kActivityWeighted});
  std::vector<ProbeScheduler::Candidate> c(2);
  c[0].eligible = false;
  c[1].eligible = false;
  EXPECT_EQ(s.PickNext(c), 0u);  // tick 0 rr
  EXPECT_EQ(s.PickNext(c), 1u);  // tick 1: weighted finds nobody, rr slot
  EXPECT_EQ(s.PickNext(std::span<const ProbeScheduler::Candidate>{}),
            ProbeScheduler::kNone);
}

TEST(ProbeScheduler, DecayCredit) {
  EXPECT_EQ(ProbeScheduler::DecayCredit(100), 75u);
  EXPECT_EQ(ProbeScheduler::DecayCredit(4), 3u);
  EXPECT_EQ(ProbeScheduler::DecayCredit(0), 0u);
}

// --------------------------------------------------------------- progress

TEST(ProgressPublisher, PackUnpackRoundTrips) {
  ThreadProgress p;
  p.meta_head = 0x0102030405060708;
  p.data_head = 11;
  p.resp_tail = 22;
  p.write_progress = 33;
  p.read_progress = 44;
  std::array<std::uint8_t, ProgressPublisher::kBlockBytes> block{};
  ProgressPublisher::Pack(p, block);
  const ThreadProgress q = ProgressPublisher::Unpack(block);
  EXPECT_EQ(q.meta_head, p.meta_head);
  EXPECT_EQ(q.data_head, p.data_head);
  EXPECT_EQ(q.resp_tail, p.resp_tail);
  EXPECT_EQ(q.write_progress, p.write_progress);
  EXPECT_EQ(q.read_progress, p.read_progress);
}

TEST(ProgressPublisher, WireLayoutIsLittleEndianU64s) {
  ThreadProgress p;
  p.meta_head = 0x0102030405060708;
  p.read_progress = 0xAABB;
  std::array<std::uint8_t, ProgressPublisher::kBlockBytes> block{};
  ProgressPublisher::Pack(p, block);
  EXPECT_EQ(block[0], 0x08);  // least-significant byte first
  EXPECT_EQ(block[7], 0x01);
  EXPECT_EQ(block[32], 0xBB);
  EXPECT_EQ(block[33], 0xAA);
  static_assert(ProgressPublisher::kBlockBytes == 40);
}

// --------------------------------------------------------------- registry

// Fake engine recording attach/detach traffic.
struct FakeEngine {
  explicit FakeEngine(std::string n) : name(std::move(n)) {}

  std::string name;
  std::vector<std::uint32_t> attached;
  std::vector<std::optional<InstanceProgress>> resumes;  // per attach
  bool fail_attach = false;
  std::uint64_t snapshot_mark = 0;  // stamped into exported snapshots

  EngineBinding Binding() {
    EngineBinding b;
    b.name = name;
    b.attach = [this](std::uint32_t id, const InstanceProgress* resume) {
      if (fail_attach) return false;
      attached.push_back(id);
      resumes.push_back(resume ? std::optional<InstanceProgress>(*resume)
                               : std::nullopt);
      return true;
    };
    b.detach = [this](std::uint32_t id) {
      for (auto it = attached.begin(); it != attached.end(); ++it) {
        if (*it == id) {
          attached.erase(it);
          InstanceProgress snap;
          snap.threads.resize(1);
          snap.threads[0].meta_head = snapshot_mark;
          return std::optional<InstanceProgress>(snap);
        }
      }
      return std::optional<InstanceProgress>();
    };
    return b;
  }
};

TEST(InstanceRegistry, LeastLoadedPlacementSpreadsInstances) {
  InstanceRegistry reg;
  FakeEngine a("a"), b("b");
  const auto ea = reg.AddEngine(a.Binding());
  const auto eb = reg.AddEngine(b.Binding());
  reg.AddInstance(1);
  reg.AddInstance(2);
  reg.AddInstance(3);
  reg.AddInstance(4);
  EXPECT_EQ(reg.InstancesOn(ea).size(), 2u);
  EXPECT_EQ(reg.InstancesOn(eb).size(), 2u);
  EXPECT_EQ(a.attached.size(), 2u);
  EXPECT_EQ(b.attached.size(), 2u);
  EXPECT_EQ(reg.live_engines(), 2u);
  EXPECT_EQ(*reg.EngineName(ea), "a");
}

TEST(InstanceRegistry, PreferredEngineHonored) {
  InstanceRegistry reg;
  FakeEngine a("a"), b("b");
  const auto ea = reg.AddEngine(a.Binding());
  const auto eb = reg.AddEngine(b.Binding());
  (void)ea;
  EXPECT_EQ(reg.AddInstance(7, eb), eb);
  EXPECT_EQ(reg.EngineOf(7), eb);
  EXPECT_EQ(b.attached, std::vector<std::uint32_t>{7});
  EXPECT_TRUE(a.attached.empty());
}

TEST(InstanceRegistry, AttachFailureLeavesInstanceUnplaced) {
  InstanceRegistry reg;
  FakeEngine a("a");
  a.fail_attach = true;
  const auto ea = reg.AddEngine(a.Binding());
  EXPECT_EQ(reg.AddInstance(1, ea), kNoEngine);
  EXPECT_EQ(reg.EngineOf(1), kNoEngine);
}

TEST(InstanceRegistry, StopEngineMigratesWithSnapshot) {
  InstanceRegistry reg;
  FakeEngine a("a"), b("b");
  a.snapshot_mark = 77;
  const auto ea = reg.AddEngine(a.Binding());
  const auto eb = reg.AddEngine(b.Binding());
  reg.AddInstance(1, ea);
  reg.AddInstance(2, ea);

  const auto migrated = reg.StopEngine(ea);
  EXPECT_EQ(migrated.size(), 2u);
  EXPECT_EQ(reg.EngineOf(1), eb);
  EXPECT_EQ(reg.EngineOf(2), eb);
  EXPECT_EQ(reg.live_engines(), 1u);
  ASSERT_EQ(b.resumes.size(), 2u);
  // The survivor received the exact snapshot the stopping engine exported.
  for (const auto& resume : b.resumes) {
    ASSERT_TRUE(resume.has_value());
    ASSERT_EQ(resume->threads.size(), 1u);
    EXPECT_EQ(resume->threads[0].meta_head, 77u);
  }
  // A dead engine cannot take instances or be stopped twice.
  EXPECT_EQ(reg.AddInstance(3, ea), kNoEngine);
  EXPECT_TRUE(reg.StopEngine(ea).empty());
}

TEST(InstanceRegistry, StopLastEngineLeavesInstancesUnassigned) {
  InstanceRegistry reg;
  FakeEngine a("a");
  const auto ea = reg.AddEngine(a.Binding());
  reg.AddInstance(1, ea);
  EXPECT_TRUE(reg.StopEngine(ea).empty());
  EXPECT_EQ(reg.EngineOf(1), kNoEngine);
  EXPECT_EQ(reg.live_engines(), 0u);
  EXPECT_EQ(reg.AddInstance(2), kNoEngine);  // nowhere to place
}

TEST(InstanceRegistry, ReassignMovesSnapshotBetweenEngines) {
  InstanceRegistry reg;
  FakeEngine a("a"), b("b");
  a.snapshot_mark = 5;
  const auto ea = reg.AddEngine(a.Binding());
  const auto eb = reg.AddEngine(b.Binding());
  reg.AddInstance(1, ea);

  EXPECT_TRUE(reg.Reassign(1, eb));
  EXPECT_EQ(reg.EngineOf(1), eb);
  ASSERT_EQ(b.resumes.size(), 1u);
  ASSERT_TRUE(b.resumes[0].has_value());
  EXPECT_EQ(b.resumes[0]->threads[0].meta_head, 5u);
  EXPECT_TRUE(a.attached.empty());

  EXPECT_TRUE(reg.Reassign(1, eb));   // no-op: already there
  EXPECT_EQ(b.resumes.size(), 1u);    // no second attach happened
  EXPECT_FALSE(reg.Reassign(99, eb));  // unknown instance
}

// An engine's detach can tell a handoff from a crash or a move by asking
// the registry: the P4 binding keeps its probe loop alive only across a
// handoff, because the same switch re-attaches the instance after it.
TEST(InstanceRegistry, DetachSeesHandoffInProgressOnlyUnderBeginHandoff) {
  InstanceRegistry reg;
  std::vector<bool> seen;  // HandoffInProgress(1) inside each detach
  EngineBinding binding;
  binding.name = "probe";
  binding.attach = [](std::uint32_t, const InstanceProgress*) {
    return true;
  };
  binding.detach = [&reg, &seen](std::uint32_t id) {
    seen.push_back(reg.HandoffInProgress(id));
    return std::optional<InstanceProgress>();
  };
  const auto ea = reg.AddEngine(binding);
  const auto eb = reg.AddEngine(binding);
  reg.AddInstance(1, ea);

  ASSERT_TRUE(reg.BeginHandoff(1));
  EXPECT_TRUE(reg.HandoffInProgress(1));
  EXPECT_EQ(reg.CompleteHandoff(1, ea), ea);
  EXPECT_FALSE(reg.HandoffInProgress(1));
  ASSERT_TRUE(reg.Reassign(1, eb));
  EXPECT_FALSE(reg.StopEngine(eb).empty());
  EXPECT_EQ(reg.EngineOf(1), ea);
  EXPECT_EQ(seen, (std::vector<bool>{true, false, false}));
}

}  // namespace
}  // namespace cowbird::offload
