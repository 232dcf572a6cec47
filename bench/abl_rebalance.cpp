// Ablation: live region rebalance on the 16-node rack. 12 clients read
// through one engine; client 0's region lives in an elastic ClusterPool on
// memory server 0 and is live-migrated to server 1 mid-run — copy pass
// over the shared fabric, dirty chase, detach, final drain, and a cutover
// that flips the translation entry and re-attaches the instance inside one
// virtual-time tick. The foreground workload never stops issuing.
//
// The table splits the measure window into before / during / after phases
// per engine. The headline shape: steady-state aggregate MOPS after the
// cutover recovers to within 10% of the pre-migration rate (the rebalance
// is live, not a stop-the-world move), and the copy moved at least the
// whole region once. Every simulated metric is bit-deterministic, so the
// emitted JSON is gated against a committed baseline (bench_gate fails on
// drift in either direction).
//
// --jobs N runs the engine sweeps concurrently; rows are emitted in sweep
// order, so output is identical for any N.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/parallel.h"
#include "workload/scale_workload.h"

using namespace cowbird;
using workload::Paradigm;
using workload::RunScaleWorkload;
using workload::ScaleWorkloadConfig;
using workload::ScaleWorkloadResult;

namespace {

ScaleWorkloadConfig MakeConfig(Paradigm paradigm) {
  ScaleWorkloadConfig cfg;
  cfg.paradigm = paradigm;
  cfg.clients = 12;
  cfg.memory_servers = 2;
  cfg.records = 16'384;  // 2 MiB region: the copy takes ~1/8 of the window
  cfg.warmup = Micros(200);
  cfg.measure = Millis(2);
  cfg.sample_latency = true;
  cfg.migrate = true;
  cfg.migrate_start = Micros(400);
  return cfg;
}

const char* EngineName(Paradigm paradigm) {
  return paradigm == Paradigm::kCowbird ? "spot" : "p4";
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParallelFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (!flags.Consume(argc, argv, i) || !flags.ok()) {
      std::printf("usage: %s %s\n", argv[0], flags.Usage());
      return 2;
    }
  }

  bench::Banner("Ablation: live region rebalance",
                "ClusterPool range migration under 12-client traffic, "
                "copy + dirty chase + one-tick cutover");

  const std::vector<Paradigm> engines = {Paradigm::kCowbird,
                                         Paradigm::kCowbirdP4};
  std::vector<ScaleWorkloadResult> results(engines.size());
  sim::ParallelFor(flags.Jobs(), static_cast<int>(engines.size()),
                   [&](int i) {
                     results[static_cast<std::size_t>(i)] = RunScaleWorkload(
                         MakeConfig(engines[static_cast<std::size_t>(i)]));
                   });

  bench::BenchJson json("abl_rebalance", "live region rebalance ablation");
  bench::Table table({"engine", "phase", "MOPS", "p99 (us)", "copied (KiB)",
                      "cutover (us)"});
  bool all_migrated = true;
  bool all_recovered = true;
  bool all_copied_whole = true;
  const Bytes region_bytes = MakeConfig(Paradigm::kCowbird).records * 128;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const ScaleWorkloadResult& r = results[i];
    const char* const engine = EngineName(engines[i]);
    all_migrated = all_migrated && r.migrations == 1;
    all_recovered =
        all_recovered && r.mops_before > 0 &&
        r.mops_after >= 0.9 * r.mops_before;
    all_copied_whole =
        all_copied_whole && r.migrate_bytes_copied >= region_bytes;
    const struct {
      const char* phase;
      double mops;
      Nanos p99;
    } rows[] = {
        {"before", r.mops_before, r.p99_before},
        {"during", r.mops_during, r.p99_during},
        {"after", r.mops_after, r.p99_after},
    };
    for (const auto& row : rows) {
      table.Row({engine, row.phase, bench::Fmt(row.mops, 3),
                 bench::Fmt(row.p99 / 1e3, 1),
                 std::to_string(r.migrate_bytes_copied / 1024),
                 bench::Fmt(r.migrate_cutover_at / 1e3, 0)});
      json.Row({{"engine", engine}, {"phase", row.phase}},
               {{"mops", row.mops},
                {"p99_us", static_cast<double>(row.p99) / 1e3},
                {"bytes_copied", static_cast<double>(r.migrate_bytes_copied)},
                {"cutover_us",
                 static_cast<double>(r.migrate_cutover_at) / 1e3}});
    }
  }
  table.Print();

  std::printf("\nShape checks:\n");
  json.ShapeCheck(all_migrated,
                  "both engines complete exactly one live cutover inside "
                  "the measure window");
  json.ShapeCheck(all_copied_whole,
                  "the copy stream moved at least the whole region once "
                  "(initial pass + dirty chase)");
  json.ShapeCheck(all_recovered,
                  "steady-state aggregate MOPS after cutover >= 0.9x the "
                  "pre-migration rate on both engines");

  return json.WriteFile() ? 0 : 1;
}
