#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/parallel.h"
#include "telemetry/hub.h"
#include "workload/generator.h"
#include "workload/hash_workload.h"
#include "workload/scale_workload.h"

namespace cowbird::workload {
namespace {

TEST(Zipfian, RankZeroIsHottest) {
  Rng rng(1);
  ZipfianGenerator gen(1000, 0.99);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[gen.Next(rng)]++;
  // Rank 0 must dominate and be well above uniform (100 per key).
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], 10000);
  // Long tail exists.
  EXPECT_GT(counts.size(), 400u);
}

TEST(Zipfian, ScrambledPreservesSkewButScatters) {
  Rng rng(2);
  ZipfianGenerator gen(100000, 0.99);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) counts[gen.NextScrambled(rng)]++;
  int max_count = 0;
  std::uint64_t hottest = 0;
  for (auto& [k, c] : counts) {
    if (c > max_count) {
      max_count = c;
      hottest = k;
    }
  }
  // Hot key exists but is not key 0 (scrambling scatters ranks).
  EXPECT_GT(max_count, 2000);
  EXPECT_NE(hottest, 0u);
}

TEST(Zipfian, StaysInRange) {
  Rng rng(3);
  ZipfianGenerator gen(50, 0.99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.Next(rng), 50u);
}

TEST(Uniform, CoversRange) {
  Rng rng(4);
  UniformGenerator gen(10);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) counts[gen.Next(rng)]++;
  EXPECT_EQ(counts.size(), 10u);
  for (auto& [k, c] : counts) {
    (void)k;
    EXPECT_NEAR(c, 1000, 250);
  }
}

// ---------------------------------------------------------------------------
// The microbenchmark driver: these are miniature versions of Figures 1/8 and
// assert the *ordering* the paper reports.
// ---------------------------------------------------------------------------

HashWorkloadConfig Quick(Paradigm p, int threads, Bytes record) {
  HashWorkloadConfig c;
  c.paradigm = p;
  c.threads = threads;
  c.record_size = record;
  c.records = 100'000;
  c.warmup = Micros(150);
  c.measure = Micros(600);
  return c;
}

TEST(HashWorkload, ParadigmOrderingMatchesPaper) {
  const double local = RunHashWorkload(Quick(Paradigm::kLocalMemory, 1, 256)).mops;
  const double cowbird = RunHashWorkload(Quick(Paradigm::kCowbird, 1, 256)).mops;
  const double nobatch =
      RunHashWorkload(Quick(Paradigm::kCowbirdNoBatch, 1, 256)).mops;
  const double async =
      RunHashWorkload(Quick(Paradigm::kOneSidedAsync, 1, 256)).mops;
  const double sync1 =
      RunHashWorkload(Quick(Paradigm::kOneSidedSync, 1, 256)).mops;
  const double sync2 =
      RunHashWorkload(Quick(Paradigm::kTwoSidedSync, 1, 256)).mops;

  // Figure 1 ordering: local ≥ cowbird > nobatch ≥ async >> sync one-sided
  // ≥ sync two-sided.
  EXPECT_GT(local, cowbird * 0.99);
  EXPECT_GT(cowbird, async);
  EXPECT_GT(nobatch, async * 0.8);
  // Paper Figure 1 gap is ~4.7x; our fabric calibration lands 3.5-4.5x
  // depending on record size (see EXPERIMENTS.md).
  EXPECT_GT(async, sync1 * 3.5);
  EXPECT_GT(sync1, sync2 * 0.9);
  // Cowbird close to local memory (paper: within 11.4%).
  EXPECT_GT(cowbird, local * 0.8);
  EXPECT_GT(sync1, 0.01);
}

TEST(HashWorkload, SyncLatencyBoundThroughput) {
  // One-sided sync: per-op time ≈ post + RTT + polls. At ~4 µs that is
  // ~0.25 MOPS per thread; assert the right ballpark (0.1–0.5).
  const auto r = RunHashWorkload(Quick(Paradigm::kOneSidedSync, 1, 64));
  EXPECT_GT(r.mops, 0.08);
  EXPECT_LT(r.mops, 0.6);
  // Sync RDMA spends almost all its time in communication (Figure 10).
  EXPECT_GT(r.comm_ratio, 0.7);
}

TEST(HashWorkload, CowbirdCommunicationRatioIsFarBelowRdma) {
  // On the raw microbenchmark (tiny per-op application work) Cowbird's
  // communication share is higher than the <20% the paper reports for
  // FASTER (Figure 10), but it must still be far below sync RDMA's 80%+.
  const auto cow = RunHashWorkload(Quick(Paradigm::kCowbird, 2, 64));
  const auto rdma = RunHashWorkload(Quick(Paradigm::kOneSidedSync, 2, 64));
  EXPECT_LT(cow.comm_ratio, 0.65);
  EXPECT_GT(rdma.comm_ratio, 0.75);
  EXPECT_LT(cow.comm_ratio, rdma.comm_ratio * 0.8);
  EXPECT_GT(cow.mops, 1.0);
}

TEST(HashWorkload, ThroughputScalesWithThreads) {
  const double one = RunHashWorkload(Quick(Paradigm::kCowbird, 1, 64)).mops;
  const double four = RunHashWorkload(Quick(Paradigm::kCowbird, 4, 64)).mops;
  EXPECT_GT(four, one * 2.0);
}

TEST(HashWorkload, LargeRecordsHitBandwidthCeiling) {
  // 512-byte records with many threads: the 100 Gbps link caps throughput
  // near 100e9/8/512 ≈ 24 MOPS; Cowbird should approach but not exceed it.
  auto c = Quick(Paradigm::kCowbird, 16, 512);
  c.measure = Millis(1);
  const auto r = RunHashWorkload(c);
  EXPECT_LT(r.mops, 26.0);
  EXPECT_GT(r.mops, 10.0);
}

TEST(HashWorkload, AifmIsFarBelowCowbird) {
  const double aifm = RunHashWorkload(Quick(Paradigm::kAifm, 4, 8)).mops;
  const double cowbird = RunHashWorkload(Quick(Paradigm::kCowbird, 4, 8)).mops;
  EXPECT_GT(cowbird, aifm * 5);  // order-of-magnitude class gap (Fig 12)
}

TEST(HashWorkload, SpotAgentFitsInOneCore) {
  auto c = Quick(Paradigm::kCowbird, 4, 64);
  const auto r = RunHashWorkload(c);
  // Processor-sharing accounting can slightly exceed 1.0 when coroutine
  // work items overlap on the single agent core.
  EXPECT_LE(r.offload_core_util, 1.3);
  EXPECT_GT(r.offload_core_util, 0.0);
}

// Serial pins of the async Cowbird loop with local hits and writes mixed
// in: exact op and event counts, so any change to the loop's RNG draws,
// work charges or events shows up here, not only in paper-shape ratios.
TEST(HashWorkload, CowbirdLoopMatchesSerialPin) {
  const struct {
    Paradigm paradigm;
    std::uint64_t ops;
    std::uint64_t sim_events;
  } pins[] = {
      {Paradigm::kCowbird, 3669u, 107054u},
      {Paradigm::kCowbirdP4, 1206u, 30930u},
  };
  for (const auto& pin : pins) {
    HashWorkloadConfig c = Quick(pin.paradigm, 2, 256);
    c.write_fraction = 0.3;
    c.warmup = Micros(100);
    c.measure = Micros(300);
    const WorkloadResult r = RunHashWorkload(c);
    EXPECT_EQ(r.ops, pin.ops) << ParadigmName(pin.paradigm);
    EXPECT_EQ(r.sim_events, pin.sim_events) << ParadigmName(pin.paradigm);
  }
}

TEST(LatencyProbe, SyncAndCowbirdUnbatchedAreClose) {
  LatencyProbeConfig sync;
  sync.paradigm = Paradigm::kOneSidedSync;
  sync.record_size = 256;
  sync.samples = 300;
  const auto rs = RunLatencyProbe(sync);

  LatencyProbeConfig nb;
  nb.paradigm = Paradigm::kCowbirdNoBatch;
  nb.record_size = 256;
  nb.samples = 300;
  const auto rn = RunLatencyProbe(nb);

  // Figure 13: Cowbird without batching is similar to sync one-sided RDMA
  // (2 extra RTTs + probe interval, minus post/poll savings).
  EXPECT_GT(rs.median_us, 1.0);
  EXPECT_LT(rn.median_us, rs.median_us * 4.0);
  EXPECT_GT(rn.median_us, rs.median_us * 0.8);
  EXPECT_GE(rn.p99_us, rn.median_us);
}

// ---------------------------------------------------------------------------
// Rack-scale fan-in workload (workload/scale_workload.h)
// ---------------------------------------------------------------------------

bool SameOutcome(const ScaleWorkloadResult& a, const ScaleWorkloadResult& b) {
  return a.client_ops == b.client_ops && a.ops == b.ops &&
         a.sim_events == b.sim_events && a.elapsed == b.elapsed;
}

// The 128-client two-tier fabric: 8 groups of 16 clients behind per-group
// ToRs trunked into the core, 4 memory servers, the P4 engine.
ScaleWorkloadConfig TwoTierConfig() {
  ScaleWorkloadConfig c;
  c.paradigm = Paradigm::kCowbirdP4;
  c.clients = 128;
  c.memory_servers = 4;
  c.client_groups = 8;
  c.threads_per_client = 1;
  c.records = 20'000;
  c.app_compute = Micros(10);
  c.window = 1;
  c.poll_idle = Micros(2);
  c.poll_jitter = 31;
  c.p4_probe_interval = Micros(4);
  c.client_propagation = 20;
  c.trunk_propagation = 600;
  c.warmup = Micros(50);
  c.measure = Micros(200);
  return c;
}

// Serial pins: per-client op counts and dispatched events of three fabrics.
// Every run is one event loop, so these are exact; any drift is a change of
// simulated behavior, not noise. The event counts exclude transmit-complete
// slots that nothing waited for (net::Link reserves them without an event).
TEST(ScaleSimTest, SixteenNodeSpotMatchesSerialPin) {
  const ScaleWorkloadResult r = RunScaleWorkload(ScaleWorkloadConfig{});
  EXPECT_EQ(r.client_ops,
            (std::vector<std::uint64_t>{1606, 1569, 1561, 1557, 1585, 1540,
                                        1553, 1536, 1552, 1521, 1526, 1514}));
  EXPECT_EQ(r.ops, 18620u);
  EXPECT_EQ(r.sim_events, 612137u);
}

TEST(ScaleSimTest, SixteenNodeP4MatchesSerialPin) {
  ScaleWorkloadConfig c;
  c.paradigm = Paradigm::kCowbirdP4;
  const ScaleWorkloadResult r = RunScaleWorkload(c);
  EXPECT_EQ(r.client_ops,
            (std::vector<std::uint64_t>{2677, 2688, 2688, 2688, 2688, 2688,
                                        2688, 2659, 2636, 2624, 2624, 2654}));
  EXPECT_EQ(r.ops, 32002u);
  EXPECT_EQ(r.sim_events, 872194u);
}

// The only end-to-end run of client_groups > 1: clients 9-58 each retire
// exactly one op inside the 200 us window, the rest none.
TEST(ScaleSimTest, TwoTier128ClientFabricMatchesSerialPin) {
  const ScaleWorkloadResult r = RunScaleWorkload(TwoTierConfig());
  std::vector<std::uint64_t> want(128, 0);
  for (int k = 9; k <= 58; ++k) want[static_cast<std::size_t>(k)] = 1;
  EXPECT_EQ(r.client_ops, want);
  EXPECT_EQ(r.ops, 50u);
  EXPECT_EQ(r.sim_events, 16106u);
}

TEST(ScaleSimTest, DcqcnEnabledButUnmarkedIsByteIdenticalToDefault) {
  // The default fabric never marks (ecn_threshold = 0), so an enabled
  // CongestionManager must not shift a single timestamp: unpaced flows
  // take the identical code path as a congestion-disabled run (the pacing
  // purity contract in rdma/congestion.h). This is what lets DCQCN be
  // switched on fleet-wide without re-baselining the uncontended goldens.
  ScaleWorkloadConfig c;  // 12 clients + 2 memory servers: the 16-node rack
  c.records = 20'000;
  c.warmup = Micros(100);
  c.measure = Micros(400);
  const ScaleWorkloadResult off = RunScaleWorkload(c);
  c.dcqcn.enabled = true;
  const ScaleWorkloadResult on = RunScaleWorkload(c);
  EXPECT_EQ(on.ecn_marked, 0u);
  EXPECT_TRUE(SameOutcome(off, on));
}

// (series count, summed value) of every gauge series named `name`.
std::pair<int, std::int64_t> GaugeTotal(const telemetry::Snapshot& snap,
                                        const std::string& name) {
  std::pair<int, std::int64_t> total{0, 0};
  for (const auto& gauge : snap.gauges) {
    if (gauge.key.rfind(name + "{", 0) == 0) {
      ++total.first;
      total.second += gauge.value;
    }
  }
  return total;
}

// A caller hub bound straight into the run: every device, link, client and
// engine reports into it, and telemetry does not perturb the simulation.
// The per-name totals were recorded alongside the serial pins (per-series
// keys carry process-global instance ids, so totals are what is pinned).
TEST(ScaleSimTest, CallerHubReceivesEveryNodesTelemetry) {
  Nanos now = 0;
  telemetry::Hub hub([&now] { return now; });
  ScaleWorkloadConfig c;
  c.telemetry = &hub;
  const ScaleWorkloadResult r = RunScaleWorkload(c);
  EXPECT_TRUE(SameOutcome(r, RunScaleWorkload(ScaleWorkloadConfig{})));

  const telemetry::Snapshot& snap = r.telemetry;
  for (const char* link : {"uplink[client0]", "egress[client11]",
                           "uplink[mem1]", "egress[spot]"}) {
    const std::string key =
        std::string("link_packets_delivered{link=") + link + "}";
    const auto value = snap.GaugeValue(key);
    ASSERT_TRUE(value.has_value()) << key;
    EXPECT_GT(*value, 0) << key;
  }
  EXPECT_EQ(snap.counters.size(), 53u);
  // 451 fabric, client and engine gauges, plus the event pool's three.
  EXPECT_EQ(snap.gauges.size(), 454u);
  EXPECT_TRUE(snap.GaugeValue("pool_high_water{pool=sim_events}").has_value());
  // 15 hosts, each with an uplink and an egress link.
  EXPECT_EQ(GaugeTotal(snap, "link_packets_delivered"),
            std::make_pair(30, std::int64_t{139604}));
  EXPECT_EQ(GaugeTotal(snap, "link_bytes_delivered"),
            std::make_pair(30, std::int64_t{22828680}));
  EXPECT_EQ(GaugeTotal(snap, "nic_packets_sent"),
            std::make_pair(15, std::int64_t{69829}));
  // 12 clients x 2 threads.
  EXPECT_EQ(GaugeTotal(snap, "client_reads_retired"),
            std::make_pair(24, std::int64_t{22672}));
  EXPECT_EQ(GaugeTotal(snap, "engine_ops_completed"),
            std::make_pair(1, std::int64_t{22725}));
}

// Telemetry of a sweep: independent runs, each bound to a private hub and
// run side by side on ParallelFor workers, fold N-way into one caller
// snapshot through Snapshot::MergeFrom (as perfbench folds its repeats).
// Every per-name total of the merged snapshot is the sum of the shards',
// and a shard's totals do not depend on how many workers ran the sweep.
TEST(ScaleSimTest, TelemetryShardsMergeNWayIntoCallerSnapshot) {
  constexpr int kShards = 4;
  const std::vector<std::string> names = {
      "link_packets_delivered", "nic_packets_sent", "client_reads_retired",
      "engine_ops_completed"};
  auto sweep = [&](int workers) {
    std::vector<telemetry::Snapshot> shards(kShards);
    sim::ParallelFor(workers, kShards, [&](int i) {
      Nanos now = 0;
      telemetry::Hub hub([&now] { return now; });
      ScaleWorkloadConfig c;
      c.clients = 4;
      c.records = 20'000;
      c.warmup = Micros(50);
      c.measure = Micros(200);
      c.seed = static_cast<std::uint64_t>(i) + 1;
      c.telemetry = &hub;
      const ScaleWorkloadResult r = RunScaleWorkload(c);
      EXPECT_GT(r.ops, 0u) << "shard " << i;
      shards[static_cast<std::size_t>(i)] = r.telemetry;
    });
    return shards;
  };
  const std::vector<telemetry::Snapshot> one = sweep(1);
  const std::vector<telemetry::Snapshot> two = sweep(2);

  telemetry::Snapshot merged;
  for (const telemetry::Snapshot& shard : one) merged.MergeFrom(shard);
  for (const std::string& name : names) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < one.size(); ++i) {
      const std::int64_t total = GaugeTotal(one[i], name).second;
      EXPECT_GT(total, 0) << name << " shard " << i;
      EXPECT_EQ(GaugeTotal(two[i], name), GaugeTotal(one[i], name))
          << name << " shard " << i;
      sum += total;
    }
    EXPECT_EQ(GaugeTotal(merged, name).second, sum) << name;
  }
  std::uint64_t counter_sum = 0;
  for (const telemetry::Snapshot& shard : one) {
    for (const auto& counter : shard.counters) counter_sum += counter.value;
  }
  std::uint64_t merged_counters = 0;
  for (const auto& counter : merged.counters) merged_counters += counter.value;
  EXPECT_EQ(merged_counters, counter_sum);
  bool saw_uplink = false;
  for (const auto& gauge : merged.gauges) {
    if (gauge.key.find("uplink[") != std::string::npos) saw_uplink = true;
  }
  EXPECT_TRUE(saw_uplink);
  for (std::size_t i = 1; i < merged.gauges.size(); ++i) {
    EXPECT_LT(merged.gauges[i - 1].key, merged.gauges[i].key);
  }
}

}  // namespace
}  // namespace cowbird::workload
