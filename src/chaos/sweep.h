// Parallel chaos seed-sweep executor.
//
// RunSweep expands (engines × seeds) into independent chaos runs and
// executes them on a sim::ParallelFor pool. Each run is bit-deterministic
// on its own, results are kept in work-item order, and all reporting — the
// textual report, failure-trace dumps, and the break-fence capture→replay
// proof — happens in a serial post-pass in (engine, seed) order. The
// aggregated report is therefore byte-identical for any --jobs value,
// which tests/CI pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/runner.h"

namespace cowbird::chaos {

struct SweepConfig {
  std::vector<EngineKind> engines = {EngineKind::kSpot, EngineKind::kP4};
  std::uint64_t seeds = 8;
  std::uint64_t start = 1;
  // Failure traces land here (created on demand). The default is a
  // .gitignore'd directory so an interrupted local sweep never leaves
  // chaos-trace-*.txt litter in the repo root.
  std::string trace_dir = "chaos-traces";
  bool break_fence = false;
  // Concurrent runs (0 → hardware concurrency). Parallelism only changes
  // wall-clock time, never the report.
  int jobs = 0;
  // Layers a shared-fabric congestion scenario onto every seed's fault
  // plan. kNone leaves the plans untouched, so the report stays byte-
  // identical to a pre-congestion sweep.
  CongestionScenario congestion = CongestionScenario::kNone;
  // Layers the live-migration scenario (plan.migrate at its default start
  // time) onto every seed's fault plan, and requires every run to have
  // completed its cutover. False leaves the plans untouched.
  bool migrate = false;
};

struct SweepOutcome {
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t caught = 0;  // break-fence mode: seeds that caught the bug
  bool replay_ok = true;
  bool ok = false;  // the driver's pass/fail verdict
  // The complete human-readable report (per-run FAIL/caught lines plus the
  // final summary line), assembled in (engine, seed) order.
  std::string report;
};

SweepOutcome RunSweep(const SweepConfig& config);

}  // namespace cowbird::chaos
