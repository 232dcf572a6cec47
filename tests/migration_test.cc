// Live region migration under traffic (DESIGN.md §14): the chaos scenario
// that copies the region's hot range to a second memory server and cuts
// the translation entry over mid-run, checked by the same linearizability
// harness as the crash path — under packet faults, engine crashes, and
// incast congestion.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/runner.h"
#include "sim/parallel.h"
#include "workload/scale_workload.h"

namespace cowbird {
namespace {

chaos::ChaosOptions MigratingOptions(chaos::EngineKind engine,
                                     std::uint64_t seed) {
  chaos::ChaosOptions opt = chaos::SweepOptions(engine, seed);
  opt.plan.migrate = true;
  return opt;
}

// Seeds 1-3 layer the migration onto seed-derived mixed fault plans: drop
// + duplicate + reorder + delay on every link, partitions, and an engine
// crash on the odd seeds — so the cutover races both packet loss and a
// crash-migration of the same instance.
TEST(MigrationChaos, CleanCutoverUnderFaultsAndCrashes) {
  for (chaos::EngineKind engine :
       {chaos::EngineKind::kSpot, chaos::EngineKind::kP4}) {
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2},
                               std::uint64_t{3}}) {
      const chaos::ChaosResult r =
          chaos::RunChaos(MigratingOptions(engine, seed));
      EXPECT_TRUE(r.Passed()) << chaos::EngineKindName(engine) << " seed "
                              << seed;
      EXPECT_EQ(r.migrations_executed, 1u)
          << chaos::EngineKindName(engine) << " seed " << seed;
      EXPECT_GT(r.migrate_bytes_copied, 0u);
      if (seed % 2 == 1) {
        EXPECT_GT(r.crashes_executed, 0u);
      }
    }
  }
}

// The copy stream must survive sharing the fabric with an incast: the
// congestion scenario layers finite switch queues + ECN + DCQCN over the
// same seeds.
TEST(MigrationChaos, CleanCutoverDuringIncastCongestion) {
  for (chaos::EngineKind engine :
       {chaos::EngineKind::kSpot, chaos::EngineKind::kP4}) {
    chaos::ChaosOptions opt = MigratingOptions(engine, 2);
    opt.plan.congestion = chaos::CongestionScenario::kIncast;
    const chaos::ChaosResult r = chaos::RunChaos(opt);
    EXPECT_TRUE(r.Passed()) << chaos::EngineKindName(engine);
    EXPECT_EQ(r.migrations_executed, 1u) << chaos::EngineKindName(engine);
  }
}

// A migrating sweep split across ParallelFor workers: each run keeps its
// own fault stream, copy stream and cutover, so every run's outcome is the
// same for any worker count.
TEST(MigrationChaos, SplitBitIdenticalAcrossWorkerCounts) {
  const std::vector<chaos::EngineKind> engines = {chaos::EngineKind::kSpot,
                                                  chaos::EngineKind::kP4};
  auto sweep = [&](int workers) {
    std::vector<chaos::ChaosResult> results(engines.size());
    sim::ParallelFor(workers, static_cast<int>(engines.size()), [&](int i) {
      const auto k = static_cast<std::size_t>(i);
      results[k] = chaos::RunChaos(MigratingOptions(engines[k], 3));
    });
    return results;
  };
  const std::vector<chaos::ChaosResult> one = sweep(1);
  for (std::size_t k = 0; k < engines.size(); ++k) {
    EXPECT_TRUE(one[k].Passed()) << chaos::EngineKindName(engines[k]);
    EXPECT_EQ(one[k].migrations_executed, 1u);
  }
  for (const int workers : {2, 4}) {
    const std::vector<chaos::ChaosResult> many = sweep(workers);
    for (std::size_t k = 0; k < engines.size(); ++k) {
      SCOPED_TRACE(std::string(chaos::EngineKindName(engines[k])) +
                   " workers " + std::to_string(workers));
      EXPECT_TRUE(many[k].Passed());
      EXPECT_EQ(many[k].history.size(), one[k].history.size());
      EXPECT_EQ(many[k].reads_checked, one[k].reads_checked);
      EXPECT_EQ(many[k].writes_completed, one[k].writes_completed);
      EXPECT_EQ(many[k].faults_injected, one[k].faults_injected);
      EXPECT_EQ(many[k].crashes_executed, one[k].crashes_executed);
      EXPECT_EQ(many[k].migrations_executed, one[k].migrations_executed);
      EXPECT_EQ(many[k].migrate_bytes_copied, one[k].migrate_bytes_copied);
      EXPECT_EQ(many[k].migrate_dirty_marks, one[k].migrate_dirty_marks);
    }
  }
}

// A non-migrating plan serializes without the migrate keys — the byte
// contract that keeps pre-migration failure traces replayable — and a
// migrating one round-trips through the trace format.
TEST(MigrationPlan, FaultPlanSerializationRoundTrip) {
  chaos::FaultPlan plain;
  EXPECT_EQ(plain.Serialize().find("migrate"), std::string::npos);

  chaos::FaultPlan plan = chaos::FaultPlan::FromSeed(5, 1);
  plan.migrate = true;
  plan.migrate_start = Micros(123);
  const std::string line = plan.Serialize();
  EXPECT_NE(line.find("migrate=1"), std::string::npos) << line;
  const auto parsed = chaos::FaultPlan::Parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_TRUE(parsed->migrate);
  EXPECT_EQ(parsed->migrate_start, Micros(123));
  EXPECT_EQ(parsed->Serialize(), line);
}

// The 16-node fan-in acceptance: 12 clients over 2 memory servers, client
// 0's ClusterPool region live-rebalanced between them mid-run on both
// engines — the cutover completes, post-cutover throughput recovers to
// within 10% of the pre-migration rate, and the run keeps serving
// throughout (non-zero ops in every phase).
TEST(MigrationScale, FanInRebalanceRecoversSteadyState) {
  for (workload::Paradigm paradigm :
       {workload::Paradigm::kCowbird, workload::Paradigm::kCowbirdP4}) {
    workload::ScaleWorkloadConfig cfg;
    cfg.paradigm = paradigm;
    cfg.clients = 12;
    cfg.memory_servers = 2;
    cfg.records = 16'384;
    cfg.measure = Millis(2);
    cfg.migrate = true;
    cfg.migrate_start = Micros(400);
    const workload::ScaleWorkloadResult r =
        workload::RunScaleWorkload(cfg);
    EXPECT_EQ(r.migrations, 1u);
    EXPECT_GE(r.migrate_bytes_copied, cfg.records * cfg.record_size);
    EXPECT_GT(r.mops_before, 0.0);
    EXPECT_GT(r.mops_during, 0.0);
    EXPECT_GE(r.mops_after, 0.9 * r.mops_before);
  }
}

// Serial pins of the 16-node rebalance on both engines: per-client ops,
// events, the copy stream's totals, the cutover instants and the phase
// p99s. Every run is one event loop, so these are exact; any drift is a
// change to the copy-then-cutover sequence or the client loop.
TEST(MigrationScale, FanInRebalanceMatchesSerialPin) {
  struct Pin {
    workload::Paradigm paradigm;
    std::vector<std::uint64_t> client_ops;
    std::uint64_t sim_events;
    std::uint64_t bytes_copied;
    std::uint64_t dirty_marks;
    Nanos started_at;
    Nanos cutover_at;
    Nanos p99_before;
    Nanos p99_during;
    Nanos p99_after;
  };
  const Pin pins[] = {
      {workload::Paradigm::kCowbird,
       {1506, 1690, 1551, 1704, 1534, 1690, 1523, 1721, 1566, 1616, 1593,
        1629},
       638743, 2101248, 0, Micros(400), Micros(650), 47703, 59960, 48518},
      {workload::Paradigm::kCowbirdP4,
       {2293, 2685, 2426, 2684, 2428, 2745, 2384, 2683, 2402, 2636, 2368,
        2654},
       847964, 2101248, 0, Micros(400), Micros(650), 24122, 50278, 31712},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(workload::ParadigmName(pin.paradigm));
    workload::ScaleWorkloadConfig cfg;
    cfg.paradigm = pin.paradigm;
    cfg.records = 16'384;
    cfg.measure = Millis(1);
    cfg.sample_latency = true;
    cfg.migrate = true;
    const workload::ScaleWorkloadResult r = workload::RunScaleWorkload(cfg);
    EXPECT_EQ(r.client_ops, pin.client_ops);
    EXPECT_EQ(r.sim_events, pin.sim_events);
    EXPECT_EQ(r.migrations, 1u);
    EXPECT_EQ(r.migrate_bytes_copied, pin.bytes_copied);
    EXPECT_EQ(r.migrate_dirty_marks, pin.dirty_marks);
    EXPECT_EQ(r.migrate_started_at, pin.started_at);
    EXPECT_EQ(r.migrate_cutover_at, pin.cutover_at);
    EXPECT_EQ(r.p99_before, pin.p99_before);
    EXPECT_EQ(r.p99_during, pin.p99_during);
    EXPECT_EQ(r.p99_after, pin.p99_after);
  }
}

}  // namespace
}  // namespace cowbird
