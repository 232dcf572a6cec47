// Datapath parity pin: the canonical 8-seed chaos sweep (both engines) must
// produce byte-identical checked histories and fault counters across
// allocator-path changes. Seeds 1-4 of the live-migration scenario and of
// each congestion scenario are pinned too, with their fabric counters.
//
// The pooled/allocation-free datapath work is only legal because it does not
// perturb simulated behavior: pool slot addresses, recycled packet buffers,
// and flat-map lookups must leave every event ordering — and therefore every
// CheckHistory outcome and injector counter — exactly as the heap-allocating
// code produced them. This test pins that claim to a committed golden file:
// each (engine, seed) run is reduced to one line carrying an FNV-1a digest
// of the full serialized trace (options, violations, complete operation
// history) plus the run's externally visible counters.
//
// Regenerating the golden is an explicit act, for behavior changes that are
// *meant* to alter outcomes (protocol fixes, workload changes):
//
//   COWBIRD_UPDATE_CHAOS_GOLDEN=1 ./tests/chaos_parity_test
//
// and the diff of tests/goldens/chaos_parity.golden should be reviewed like
// code: an unexpected digest change means the "optimization" changed what
// the simulation does.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/history.h"
#include "chaos/runner.h"
#include "chaos/trace.h"
#include "gtest/gtest.h"

namespace cowbird::chaos {
namespace {

constexpr std::uint64_t kSweepSeeds = 8;
constexpr std::uint64_t kScenarioSeeds = 4;

std::string GoldenPath() {
  return std::string(COWBIRD_SOURCE_DIR) + "/tests/goldens/chaos_parity.golden";
}

// One line per run: every field a behavior change could move. The trace
// digest covers the complete operation history byte-for-byte (ids, invoke /
// complete times in virtual nanoseconds, payload digests) via the same
// serialization the replay tooling trusts.
std::string RunLine(const ChaosOptions& opt) {
  const ChaosResult result = RunChaos(opt);
  const std::string trace = SerializeTrace(MakeTrace(opt, result));
  const std::uint64_t digest = HistoryRecorder::Digest(std::span(
      reinterpret_cast<const std::uint8_t*>(trace.data()), trace.size()));
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "engine=%s seed=%llu trace_fnv=%016llx violations=%zu reads=%llu "
      "writes=%llu faults=%llu drop=%llu dup=%llu reorder=%llu delay=%llu "
      "crashes=%llu counters_exact=%d",
      EngineKindName(opt.engine), static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(digest), result.violations.size(),
      static_cast<unsigned long long>(result.reads_checked),
      static_cast<unsigned long long>(result.writes_completed),
      static_cast<unsigned long long>(result.faults_injected),
      static_cast<unsigned long long>(result.decided_dropped),
      static_cast<unsigned long long>(result.decided_duplicated),
      static_cast<unsigned long long>(result.decided_reordered),
      static_cast<unsigned long long>(result.decided_delayed),
      static_cast<unsigned long long>(result.crashes_executed),
      result.counters_exact ? 1 : 0);
  std::string line = buf;
  if (opt.plan.migrate || opt.plan.congestion != CongestionScenario::kNone) {
    std::snprintf(
        buf, sizeof(buf),
        " scenario=%s ecn_marked=%llu pfc_pauses=%llu link_pauses=%llu "
        "cnps=%llu migrations=%llu",
        opt.plan.migrate ? "migration"
                         : CongestionScenarioName(opt.plan.congestion),
        static_cast<unsigned long long>(result.ecn_marked),
        static_cast<unsigned long long>(result.pfc_pauses),
        static_cast<unsigned long long>(result.link_pauses),
        static_cast<unsigned long long>(result.cnps),
        static_cast<unsigned long long>(result.migrations_executed));
    line += buf;
  }
  return line;
}

std::vector<std::string> SweepLines() {
  constexpr EngineKind kEngines[] = {EngineKind::kSpot, EngineKind::kP4};
  std::vector<std::string> lines;
  for (const EngineKind engine : kEngines) {
    for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
      lines.push_back(RunLine(SweepOptions(engine, seed)));
    }
  }
  // The scenario layers chaos_sweep --migration / --congestion <c> add.
  for (const EngineKind engine : kEngines) {
    for (std::uint64_t seed = 1; seed <= kScenarioSeeds; ++seed) {
      ChaosOptions opt = SweepOptions(engine, seed);
      opt.plan.migrate = true;
      lines.push_back(RunLine(opt));
    }
  }
  for (const CongestionScenario scenario :
       {CongestionScenario::kIncast, CongestionScenario::kVictim,
        CongestionScenario::kPauseStorm}) {
    for (const EngineKind engine : kEngines) {
      for (std::uint64_t seed = 1; seed <= kScenarioSeeds; ++seed) {
        ChaosOptions opt = SweepOptions(engine, seed);
        opt.plan.congestion = scenario;
        lines.push_back(RunLine(opt));
      }
    }
  }
  return lines;
}

TEST(ChaosParity, EightSeedSweepMatchesGolden) {
  const std::vector<std::string> lines = SweepLines();

  if (std::getenv("COWBIRD_UPDATE_CHAOS_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good())
      << "missing golden " << GoldenPath()
      << " — generate with COWBIRD_UPDATE_CHAOS_GOLDEN=1";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }

  ASSERT_EQ(lines.size(), golden.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i])
        << "chaos outcome diverged from the pre-change pin (run " << i
        << "); the datapath change altered simulated behavior";
  }
}

}  // namespace
}  // namespace cowbird::chaos
