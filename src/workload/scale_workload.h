// The rack-scale fan-in workload: K compute clients and M memory servers
// around one top-of-rack switch (RackTopology in workload/fabric.h), every
// client running the async read loop of the hash workload against a pool
// on memory server k % M, all offloaded through one engine — a single
// Cowbird-Spot agent serving K instances (fan-in), or the P4 engine on the
// switch.
//
// The default shape is the 16-node scaling fabric of the ROADMAP: 12
// clients + 2 memory servers + 1 spot host + 1 switch; `client_groups`
// turns it into the two-tier fabric. Every node runs on one event loop, so
// a run's per-client operation counts are a pure function of the config,
// which the workload tests pin.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "rdma/params.h"
#include "spot/agent.h"
#include "telemetry/hub.h"
#include "workload/hash_workload.h"

namespace cowbird::workload {

struct ScaleWorkloadConfig {
  // Engine serving every client: Paradigm::kCowbird (one spot agent,
  // fan-in) or Paradigm::kCowbirdP4 (engine on the switch).
  Paradigm paradigm = Paradigm::kCowbird;
  int clients = 12;
  int memory_servers = 2;
  int threads_per_client = 2;
  Bytes record_size = 128;
  std::uint64_t records = 100'000;  // per memory-server pool
  Nanos app_compute = 60;
  int window = 32;
  // Back-off between completion polls while the window is full and nothing
  // has finished. The default spins hard; completions are probe-paced
  // (micro-seconds end to end), so coarser values model a client that
  // parks instead of busy-polling.
  Nanos poll_idle = 300;
  // Per-client increment on top of poll_idle (client k parks for
  // poll_idle + k * poll_jitter). Jittered back-off is how real fleets
  // avoid herd synchronization. Deterministic: a function of the client
  // index only.
  Nanos poll_jitter = 0;
  Nanos warmup = Micros(200);
  Nanos measure = Millis(1);
  std::uint64_t seed = 1;
  spot::SpotAgent::Config agent;
  // kCowbirdP4 only: overrides the engine's probe pacing (0 keeps the
  // engine default of one probe per 2 us). Sparse probing models a switch
  // pipeline that amortizes ring fetches.
  Nanos p4_probe_interval = 0;
  rdma::CostModel costs;
  // Two-tier fabric: > 1 spreads the clients over this many per-group ToR
  // switches, each trunked into the core (RackTopology). The default keeps
  // the flat single-switch fan-in.
  int client_groups = 1;
  // Client-uplink propagation delay; 0 keeps the fabric profile's uniform
  // link_propagation. Short in-rack DACs are tens of ns.
  Nanos client_propagation = 0;
  // ToR <-> core trunk propagation; 0 keeps the fabric profile's uniform
  // link_propagation. Hall-scale optical runs are an order of magnitude
  // longer than in-rack DACs.
  Nanos trunk_propagation = 0;
  // Optional telemetry: every device, link, client and engine binds to this
  // hub, and the run's final metric state comes back in
  // ScaleWorkloadResult::telemetry.
  telemetry::Hub* telemetry = nullptr;
  // Incast: every client targets memory server 0 instead of k % M, so all
  // K client flows converge on one switch egress port.
  bool incast = false;
  // Fabric congestion profile, mapped onto every switch's Switch::Config
  // and every NIC's NicConfig. Defaults keep the fabric byte-identical to
  // the uncontended runs.
  Bytes egress_queue_capacity = MiB(4);
  Bytes ecn_threshold = 0;
  bool pfc = false;
  rdma::DcqcnConfig dcqcn;
  // Go-Back-N timeout for every NIC. Raise well above the congested RTT
  // when DCQCN paces flows, or pacing delays read as loss and the rewinds
  // re-execute whole read windows, which the rate control then amplifies
  // into a retransmission storm.
  Nanos retransmit_timeout = Micros(100);
  // Records per-op issue→completion latency and reports p50/p99 over the
  // measure window. Off by default; enabling draws no extra RNG values, so
  // the op streams are unchanged.
  bool sample_latency = false;
  // Live rebalance (requires memory_servers >= 2): client 0's region is
  // allocated from a ClusterPool on memory server 0 and, at `migrate_start`
  // (absolute sim time, warmup included), live-migrated to memory server 1
  // while every client keeps issuing — copy pass, cutover, re-attach, all
  // under the foreground read traffic. Off by default; a non-migrating run
  // is byte-identical to a pre-rebalance build.
  bool migrate = false;
  Nanos migrate_start = Micros(400);
};

struct ScaleWorkloadResult {
  std::uint64_t ops = 0;  // total over the measure window
  std::vector<std::uint64_t> client_ops;  // per client, the determinism pin
  std::uint64_t sim_events = 0;
  Nanos elapsed = 0;
  double mops = 0;
  telemetry::Snapshot telemetry;  // filled when config.telemetry was set
  // Measure-window latency percentiles (only when config.sample_latency).
  Nanos p50_latency = 0;
  Nanos p99_latency = 0;
  std::uint64_t latency_samples = 0;
  // Whole-run congestion counters (warmup included).
  std::uint64_t switch_drops = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t pfc_pauses = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t cnps = 0;  // CNPs received across every NIC
  // Live-rebalance observability (all zero unless config.migrate). The
  // before/during/after split covers the measure window only: before ends
  // at migrate_start, during spans copy + cutover, after is post-cutover
  // steady state. Phase p99s need config.sample_latency too.
  std::uint64_t migrations = 0;
  std::uint64_t migrate_bytes_copied = 0;
  std::uint64_t migrate_dirty_marks = 0;
  Nanos migrate_started_at = 0;
  Nanos migrate_cutover_at = 0;
  double mops_before = 0;
  double mops_during = 0;
  double mops_after = 0;
  Nanos p99_before = 0;
  Nanos p99_during = 0;
  Nanos p99_after = 0;
};

ScaleWorkloadResult RunScaleWorkload(const ScaleWorkloadConfig& config);

}  // namespace cowbird::workload
