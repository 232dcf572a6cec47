// The repo benchmark: one workload per invocation, serial, on one host
// thread, measured from outside the program through its public entry points.
//
//   perfbench --workload <hash_spot|hash_p4|rack_incast|faulty_fabric>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test [--baseline <BENCH_sim_throughput baseline json>]
//
// Every invocation does the same work whatever --trace says: untraced
// repeats for --seconds, each with a set-up call beside it and a host speed
// reference sample after it, then one traced rerun that must reproduce the
// untraced virtual outcome exactly. --trace only picks which
// metric set the last output line carries (end-to-end or per-layer). See
// NOTES.md for each metric's definition, clock and the workload choice.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "common/rng.h"
#include "common/sparse_memory.h"
#include "derive.h"
#include "host_speed.h"
#include "telemetry/hub.h"
#include "telemetry/json.h"
#include "workload/hash_workload.h"
#include "workload/scale_workload.h"

// ---------------------------------------------------------------------------
// Heap-allocation counting: a replacement global operator new, armed only
// over the span being measured. Relaxed atomics: the benchmark is
// single-threaded, but operator new is process-global.
// ---------------------------------------------------------------------------
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
void ArmAllocs() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
}
std::uint64_t DisarmAllocs() {
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace

// Every delete funnels to free(), which glibc documents as the release
// function for aligned_alloc storage too.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc();
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {
namespace {

using cowbird::Bytes;
using cowbird::KiB;
using cowbird::Micros;
using cowbird::Millis;
using cowbird::Nanos;
using cowbird::telemetry::Hub;
using cowbird::telemetry::JsonWriter;
using cowbird::telemetry::OpBreakdown;
using cowbird::telemetry::OpPhase;
using cowbird::telemetry::Snapshot;
using cowbird::workload::Paradigm;
namespace chaos = cowbird::chaos;
namespace workload = cowbird::workload;

using Clock = std::chrono::steady_clock;
double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Share(std::uint64_t num, std::uint64_t base) {
  return Ratio(static_cast<double>(num), static_cast<double>(base));
}

// ---------------------------------------------------------------------------
// Metric names and units. BENCHMARK.json lists the same names; run.py
// refuses output whose names differ from it.
// ---------------------------------------------------------------------------
struct Spec {
  const char* name;
  const char* unit;
};

constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},        {"sim_ops_per_s", "ops/s"},
    {"peak_rss_mib", "MiB"}, {"allocs_per_op", "allocs/op"},
    {"sim_mops", "MOPS"},    {"sim_p50_us", "us"},
    {"sim_p99_us", "us"},
};

constexpr Spec kPerLayer[] = {
    {"sim.events_per_op", "events/op"},
    {"sim.host_ns_per_event", "ns/event"},
    {"sim.unscaled_ops_per_s", "ops/s"},
    {"host.reference_ns_per_step", "ns"},
    {"common.sparse_memory_ns_per_access", "ns"},
    {"common.pool_high_water", "count"},
    {"common.pool_exhausted", "count"},
    {"workload.testbed_build_s", "s"},
    {"workload.warmup_s", "s"},
    {"workload.latency_samples", "count"},
    {"net.link_packets_per_op", "packets/op"},
    {"net.switch_ecn_marked", "count"},
    {"net.switch_pfc_pauses", "count"},
    {"net.switch_egress_drops", "count"},
    {"net.link_paused_ns", "ns"},
    {"rdma.nic_packets_per_op", "packets/op"},
    {"rdma.retransmissions", "count"},
    {"rdma.cnps_received", "count"},
    {"rdma.rate_decreases", "count"},
    {"offload.probe_useful_ratio", "ratio"},
    {"offload.hazard_block_ratio", "ratio"},
    {"spot.ops_per_batch", "ops/batch"},
    {"spot.agent_busy_pct", "%"},
    {"spot.reads_stalled_per_op", "reads/op"},
    {"p4.recycled_per_op", "packets/op"},
    {"p4.reads_paused_per_op", "reads/op"},
    {"p4.gbn_recoveries", "count"},
    {"core.issue_failures_per_op", "failures/op"},
    {"core.comm_cpu_pct", "%"},
    {"op.probe_pickup_p50_ns", "ns"},
    {"op.probe_pickup_p99_ns", "ns"},
    {"op.engine_queue_p50_ns", "ns"},
    {"op.engine_queue_p99_ns", "ns"},
    {"op.fabric_pool_p50_ns", "ns"},
    {"op.fabric_pool_p99_ns", "ns"},
    {"op.publish_deliver_p50_ns", "ns"},
    {"op.publish_deliver_p99_ns", "ns"},
    {"chaos.faults_injected_per_op", "faults/op"},
    {"chaos.crashes", "count"},
    {"chaos.reads_checked", "count"},
    {"chaos.check_s", "s"},
    {"telemetry.trace_overhead_pct", "%"},
};

// One invocation's findings: metric values, ops attempted and failed, and
// every check with its verdict.
class Report {
 public:
  void Set(const std::string& name, double value) {
    if (!std::isfinite(value)) Check(false, name + " is not a finite number");
    values_[name] = std::isfinite(value) ? value : 0;
  }

  // A failed check marks the run incorrect and counts `failed_ops` against
  // failed_ops_ratio; nothing is swallowed.
  void Check(bool ok, const std::string& what, std::uint64_t failed_ops = 0) {
    checks_.push_back((ok ? "[ok]   " : "[FAIL] ") + what);
    if (!ok) {
      correct_ = false;
      failed_ += failed_ops;
    }
  }
  void Attempt(std::uint64_t ops) { attempted_ += ops; }
  std::uint64_t attempted() const { return attempted_; }
  double Value(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  // Human-readable report, the full record, then the result line last.
  void Print(const std::string& workload, std::uint64_t seed, double seconds,
             bool trace) const {
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const auto& s : kEndToEnd) known = known || name == s.name;
      for (const auto& s : kPerLayer) known = known || name == s.name;
      if (!known) {
        std::fprintf(stderr, "perfbench: metric %s has no spec\n",
                     name.c_str());
        std::exit(2);
      }
    }
    for (const auto& c : checks_) std::printf("check %s\n", c.c_str());
    const std::uint64_t failed = std::min(failed_, attempted_);
    const double failed_ratio = Share(failed, attempted_);
    for (const auto& s : kEndToEnd) PrintLine("e2e  ", s);
    for (const auto& s : kPerLayer) PrintLine("layer", s);
    std::printf("e2e   %-36s %.6g ratio (%llu of %llu ops)\n",
                "failed_ops_ratio", failed_ratio,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted_));

    JsonWriter record;
    record.BeginObject();
    record.Key("workload");
    record.String(workload);
    record.Key("seed");
    record.Uint(seed);
    record.Key("seconds");
    record.RawNumber(Num(seconds));
    record.Key("failed_ops_ratio");
    record.RawNumber(Num(failed_ratio));
    record.Key("end_to_end");
    WriteMetrics(record, kEndToEnd);
    record.Key("per_layer");
    WriteMetrics(record, kPerLayer);
    record.Key("checks");
    record.BeginArray();
    for (const auto& c : checks_) record.String(c);
    record.EndArray();
    record.EndObject();
    std::printf("record %s\n", record.str().c_str());

    JsonWriter out;
    out.BeginObject();
    // A run that retired nothing has nothing to vouch for.
    out.Key("correct");
    out.Bool(correct_ && attempted_ > 0);
    out.Key("attempted");
    out.Uint(std::max<std::uint64_t>(attempted_, 1));
    out.Key("failed");
    out.Uint(attempted_ == 0 ? 1 : failed);
    out.Key("metrics");
    if (trace) {
      WriteMetrics(out, kPerLayer);
    } else {
      WriteMetrics(out, kEndToEnd);
    }
    out.EndObject();
    std::printf("%s\n", out.str().c_str());
  }

 private:
  // Every digit the double holds.
  static std::string Num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  void PrintLine(const char* tag, const Spec& s) const {
    std::printf("%s %-36s %.6g %s\n", tag, s.name, Value(s.name), s.unit);
  }
  template <std::size_t N>
  void WriteMetrics(JsonWriter& w, const Spec (&specs)[N]) const {
    w.BeginObject();
    for (const auto& s : specs) {
      w.Key(s.name);
      w.BeginObject();
      w.Key("value");
      w.RawNumber(Num(Value(s.name)));
      w.Key("unit");
      w.String(s.unit);
      w.EndObject();
    }
    w.EndObject();
  }

  std::map<std::string, double> values_;
  std::vector<std::string> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Host ns per SparseMemory write+read of one record at a seeded random
// offset, over a prefaulted region of the workload's footprint.
double SparseMemoryNsPerAccess(Bytes record, std::uint64_t records,
                               std::uint64_t seed) {
  cowbird::SparseMemory mem;
  mem.PreFault(0, record * records);
  std::vector<std::uint8_t> buf(record, static_cast<std::uint8_t>(seed));
  cowbird::Rng rng(seed);
  constexpr int kAccesses = 1 << 15;
  std::vector<double> per_access;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kAccesses; ++i) {
      const std::uint64_t addr = rng.Below(records) * record;
      buf[0] = static_cast<std::uint8_t>(i);
      mem.Write(addr, buf);
      mem.Read(addr, buf);
    }
    per_access.push_back(Seconds(t0, Clock::now()) * 1e9 / kAccesses);
  }
  return Median(per_access);
}

// Per-segment p50/p99 over complete op breakdowns; a percentile the sample
// count cannot support fails the check instead of being reported.
void ReportSegments(const std::vector<OpBreakdown>& ops, Report& report) {
  for (int seg = 0; seg < cowbird::telemetry::kNumOpSegments; ++seg) {
    std::vector<Nanos> samples;
    for (const auto& op : ops) {
      if (op.Complete()) samples.push_back(op.Segment(seg));
    }
    const std::string base =
        std::string("op.") + cowbird::telemetry::OpSegmentName(seg);
    const auto p50 = Percentile(samples, 0.50);
    const auto p99 = Percentile(samples, 0.99);
    report.Check(p99.has_value(),
                 base + " p99 rests on >= 10 samples beyond it (" +
                     std::to_string(samples.size()) + " samples)");
    report.Set(base + "_p50_ns", static_cast<double>(p50.value_or(0)));
    report.Set(base + "_p99_ns", static_cast<double>(p99.value_or(0)));
  }
}

// Layer counters shared by every workload, from a traced run's snapshot.
// `retired` (client-retired reads + writes over the whole run, warmup
// included) is the base of every "/op" ratio, so numerator and base span the
// same interval.
void ReportLayerCounts(const Snapshot& s, Report& report) {
  const auto sum = [&s](const char* name) { return SumSeries(s, name); };
  const double retired =
      sum("client_reads_retired") + sum("client_writes_retired");
  const auto per_op = [&](const char* name) {
    return Ratio(sum(name), retired);
  };
  report.Check(retired > 0, "traced run retired ops (base of the /op ratios)");
  report.Set("common.pool_high_water", sum("pool_high_water"));
  report.Set("common.pool_exhausted", sum("pool_exhausted_total"));
  report.Set("net.link_packets_per_op", per_op("link_packets_delivered"));
  report.Set("net.link_paused_ns", sum("link_paused_ns"));
  report.Set("rdma.nic_packets_per_op", per_op("nic_packets_sent"));
  report.Set("rdma.retransmissions", sum("qp_retransmissions"));
  report.Set("rdma.cnps_received", sum("dcqcn_cnps_received"));
  report.Set("rdma.rate_decreases", sum("dcqcn_rate_decreases"));
  const double found = sum("probe_found_work");
  report.Set("offload.probe_useful_ratio",
             Ratio(found, found + sum("probe_idle")));
  const double blocked = sum("hazard_reads_blocked");
  report.Set("offload.hazard_block_ratio",
             Ratio(blocked, blocked + sum("hazard_reads_clear")));
  report.Set("spot.ops_per_batch", Ratio(sum("engine_ops_completed"),
                                         sum("engine_batches_flushed")));
  report.Set("spot.reads_stalled_per_op",
             per_op("engine_reads_stalled_by_writes"));
  report.Set("p4.recycled_per_op", per_op("engine_packets_recycled"));
  report.Set("p4.reads_paused_per_op", per_op("engine_reads_paused_by_writes"));
  report.Set("p4.gbn_recoveries", sum("engine_gbn_recoveries"));
  report.Set("core.issue_failures_per_op", per_op("client_issue_failures"));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// At least this many untraced repeats, however short --seconds is.
constexpr int kMinRepeats = 3;

// The untraced repeats with their host slowdowns. Repeat 0 warms up and
// fixes the outcome the others must reproduce; it runs before the speed
// reference exists, so it also sets the workload's own peak RSS. Every later
// repeat is bracketed by reference samples, and its slowdown is their mean.
struct Repeats {
  std::vector<double> slowdown;  // per repeat; 0 for repeat 0
  std::vector<double> reference_ns;
};

template <typename Fn>
Repeats RepeatFor(double seconds, Fn&& body) {
  Repeats out;
  const auto start = Clock::now();
  body(0);
  out.slowdown.push_back(0);
  HostSpeedReference reference;
  double before = reference.SampleNsPerStep();
  for (int n = 1; n < kMinRepeats || Seconds(start, Clock::now()) < seconds;
       ++n) {
    body(n);
    const double after = reference.SampleNsPerStep();
    out.reference_ns.push_back(after);
    out.slowdown.push_back((before + after) / 2 /
                           HostSpeedReference::kNominalNsPerStep);
    before = after;
  }
  return out;
}

// The host-clock rates of the untraced repeats: ops and events per host
// second scaled to the nominal host, and the unscaled ops rate beside them.
void ReportHostRates(const Repeats& repeats,
                     const std::vector<double>& ops_per_s,
                     const std::vector<double>& events_per_s, Report& report) {
  report.Set("sim_ops_per_s", NominalRate(ops_per_s, repeats.slowdown));
  report.Set("sim.unscaled_ops_per_s",
             Median({ops_per_s.begin() + 1, ops_per_s.end()}));
  report.Set("host.reference_ns_per_step", Median(repeats.reference_ns));
  if (!events_per_s.empty()) {
    report.Set("sim.host_ns_per_event",
               Ratio(1e9, NominalRate(events_per_s, repeats.slowdown)));
  }
}

std::string RepeatLabel(int i) {
  return "repeat " + std::to_string(i) +
         " reproduces the first repeat's virtual outcome";
}

// ---------------------------------------------------------------------------
// hash_spot / hash_p4: the Fig 8 hash-index loop (sim_throughput's shape)
// plus the Fig 13 closed-loop latency probe on the same engine.
// ---------------------------------------------------------------------------
constexpr Nanos kHashWarmup = Micros(300);
// The hash loop's sample window is one measure window of virtual time.
constexpr Nanos kHashMeasure = Millis(5);

workload::HashWorkloadConfig HashConfig(Paradigm paradigm, std::uint64_t seed,
                                        Nanos measure) {
  workload::HashWorkloadConfig cfg;
  cfg.paradigm = paradigm;
  cfg.threads = 4;
  cfg.record_size = 256;
  cfg.records = 200'000;
  cfg.local_fraction = 0.0;
  cfg.window = 64;
  cfg.warmup = kHashWarmup;
  cfg.measure = measure;
  cfg.write_fraction = 0.3;
  cfg.seed = seed;
  return cfg;
}

struct HashPass {
  workload::WorkloadResult r;
  double before_window_s = 0;  // call start -> measure start (warmup included)
  double measure_s = 0;        // measure window
  double total_s = 0;          // whole call, teardown included
  std::uint64_t allocs = 0;
};

HashPass RunHashPass(workload::HashWorkloadConfig cfg, Hub* hub) {
  HashPass p;
  cfg.telemetry = hub;
  Clock::time_point m0, m1;
  cfg.on_measure_start = [&] {
    m0 = Clock::now();
    ArmAllocs();
  };
  cfg.on_measure_end = [&] {
    p.allocs = DisarmAllocs();
    m1 = Clock::now();
  };
  const auto start = Clock::now();
  p.r = workload::RunHashWorkload(cfg);
  const auto end = Clock::now();
  p.before_window_s = Seconds(start, m0);
  p.measure_s = Seconds(m0, m1);
  p.total_s = Seconds(start, end);
  return p;
}

bool SameHashOutcome(const workload::WorkloadResult& a,
                     const workload::WorkloadResult& b) {
  return a.ops == b.ops && a.sim_events == b.sim_events &&
         a.elapsed == b.elapsed && a.mops == b.mops &&
         a.comm_ratio == b.comm_ratio &&
         a.offload_core_util == b.offload_core_util;
}

void RunHash(Paradigm paradigm, const Args& args, Report& report) {
  const auto cfg = HashConfig(paradigm, args.seed, kHashMeasure);

  // Set-up: the same call with zero warmup and a zero-length window, once
  // beside each repeat.
  auto zero = cfg;
  zero.warmup = 0;
  zero.measure = 0;

  std::vector<double> ops_per_s, allocs_per_op, events_per_s, measure_s,
      setup_s, build_s, warmup_s;
  HashPass first;
  const Repeats repeats = RepeatFor(args.seconds, [&](int i) {
    const HashPass z = RunHashPass(zero, nullptr);
    setup_s.push_back(z.total_s);
    build_s.push_back(z.before_window_s);
    const HashPass p = RunHashPass(cfg, nullptr);
    report.Attempt(p.r.ops);
    if (i == 0) {
      first = p;
      report.Set("peak_rss_mib", PeakRssMib());
    } else {
      report.Check(SameHashOutcome(p.r, first.r), RepeatLabel(i), p.r.ops);
    }
    ops_per_s.push_back(Ratio(static_cast<double>(p.r.ops), p.measure_s));
    std::printf("repeat %d: %llu ops in %.4f s window, %.0f ops/s\n", i,
                static_cast<unsigned long long>(p.r.ops), p.measure_s,
                ops_per_s.back());
    allocs_per_op.push_back(Share(p.allocs, p.r.ops));
    events_per_s.push_back(
        Ratio(static_cast<double>(p.r.sim_events), p.measure_s));
    measure_s.push_back(p.measure_s);
    warmup_s.push_back(p.before_window_s - z.before_window_s);
  });
  ReportHostRates(repeats, ops_per_s, events_per_s, report);
  report.Set("setup_s", NominalTime(setup_s, repeats.slowdown));
  report.Set("workload.testbed_build_s",
             NominalTime(build_s, repeats.slowdown));
  report.Set("workload.warmup_s", NominalTime(warmup_s, repeats.slowdown));
  report.Set("allocs_per_op", Median(allocs_per_op));
  report.Set("sim_mops", first.r.mops);
  report.Set("sim.events_per_op", Share(first.r.sim_events, first.r.ops));
  report.Set("core.comm_cpu_pct", first.r.comm_ratio * 100);
  report.Set("spot.agent_busy_pct", first.r.offload_core_util * 100);

  // Traced rerun: per-layer counts, op segments and the loop's per-op
  // latency, which the untraced repeats cannot see.
  Hub hub([] { return Nanos{0}; });
  const HashPass traced = RunHashPass(cfg, &hub);
  report.Check(SameHashOutcome(traced.r, first.r),
               "traced rerun reproduces the untraced virtual outcome (ops " +
                   std::to_string(traced.r.ops) + " vs " +
                   std::to_string(first.r.ops) + ")",
               report.attempted());
  report.Set("telemetry.trace_overhead_pct",
             (Ratio(traced.measure_s, Median(measure_s)) - 1) * 100);
  ReportLayerCounts(traced.r.telemetry, report);

  std::vector<OpBreakdown> window_ops;
  std::vector<Nanos> latency;
  for (const auto& [key, op] : hub.tracer.ops()) {
    const Nanos issued = op.PhaseAt(OpPhase::kIssue);
    if (!op.Complete() || issued < kHashWarmup ||
        issued >= kHashWarmup + kHashMeasure) {
      continue;
    }
    window_ops.push_back(op);
    latency.push_back(op.Total());
  }
  report.Check(hub.tracer.dropped_ops() == 0,
               "tracer kept every op (none dropped)");
  const std::uint64_t mismatches = SegmentTilingFailures(window_ops);
  report.Check(mismatches == 0,
               "every complete op's four non-negative segments sum to its "
               "latency to the ns (" +
                   std::to_string(window_ops.size()) + " ops, " +
                   std::to_string(mismatches) + " off)",
               mismatches);
  ReportSegments(window_ops, report);
  report.Set("workload.latency_samples", static_cast<double>(latency.size()));
  const auto p50 = Percentile(latency, 0.50);
  const auto p99 = Percentile(latency, 0.99);
  report.Check(p99.has_value(),
               "loop latency p99 rests on >= 10 samples beyond it");
  report.Set("sim_p50_us", static_cast<double>(p50.value_or(0)) / 1e3);
  report.Set("sim_p99_us", static_cast<double>(p99.value_or(0)) / 1e3);

  // Fig 13 probe, untraced and traced. Its key stream is fixed inside the
  // probe, so it reads the same for every seed: printed and checked, but not
  // the reported latency metric.
  workload::LatencyProbeConfig probe;
  probe.paradigm = paradigm;
  probe.inflight = 16;
  probe.samples = 2000;
  const auto plain = workload::RunLatencyProbe(probe);
  Hub probe_hub([] { return Nanos{0}; });
  probe.telemetry = &probe_hub;
  const auto probed = workload::RunLatencyProbe(probe);
  std::printf("probe fig13 %s inflight=16: p50 %.3f us, p99 %.3f us "
              "(%llu samples)\n",
              workload::ParadigmName(paradigm), plain.median_us, plain.p99_us,
              static_cast<unsigned long long>(plain.samples));
  report.Check(plain.median_us == probed.median_us &&
                   plain.p99_us == probed.p99_us &&
                   plain.samples == probed.samples,
               "traced latency probe reproduces the untraced percentiles");

  report.Set("common.sparse_memory_ns_per_access",
             SparseMemoryNsPerAccess(cfg.record_size, cfg.records, args.seed));
}

// ---------------------------------------------------------------------------
// rack_incast: 12 clients on the 16-node rack, all reading 4 KiB records
// from memory server 0 through the Spot engine, with abl_incast's
// ECN + DCQCN + PFC profile.
// ---------------------------------------------------------------------------
constexpr Nanos kRackMeasure = Millis(4);

workload::ScaleWorkloadConfig RackConfig(std::uint64_t seed) {
  workload::ScaleWorkloadConfig cfg;
  cfg.paradigm = Paradigm::kCowbird;
  cfg.clients = 12;
  cfg.memory_servers = 2;
  cfg.incast = true;
  cfg.record_size = 4096;
  cfg.records = 20'000;
  cfg.warmup = Micros(200);
  cfg.measure = kRackMeasure;
  cfg.sample_latency = true;
  cfg.egress_queue_capacity = KiB(80);
  cfg.retransmit_timeout = Millis(1);
  cfg.ecn_threshold = KiB(16);
  cfg.dcqcn.enabled = true;
  cfg.pfc = true;
  cfg.dcqcn.cnp_interval = Micros(25);
  cfg.dcqcn.min_rate_gbps = 5.0;
  cfg.seed = seed;
  // Every 4 KiB key costs the same here, so the keys alone leave the virtual
  // outcome seed-independent. The seed also draws the clients' poll-back-off
  // jitter (client k parks 300 + k * jitter ns), the per-client timing
  // spread that decides how the incast herd lines up.
  cfg.poll_jitter = static_cast<Nanos>(cowbird::Rng(seed).Below(16));
  return cfg;
}

struct RackPass {
  workload::ScaleWorkloadResult r;
  double total_s = 0;
  std::uint64_t allocs = 0;
};

RackPass RunRackPass(workload::ScaleWorkloadConfig cfg, Hub* hub) {
  RackPass p;
  cfg.telemetry = hub;
  const auto start = Clock::now();
  ArmAllocs();
  p.r = workload::RunScaleWorkload(cfg);
  p.allocs = DisarmAllocs();
  p.total_s = Seconds(start, Clock::now());
  return p;
}

bool SameRackOutcome(const workload::ScaleWorkloadResult& a,
                     const workload::ScaleWorkloadResult& b) {
  return a.ops == b.ops && a.client_ops == b.client_ops &&
         a.sim_events == b.sim_events && a.mops == b.mops &&
         a.p50_latency == b.p50_latency && a.p99_latency == b.p99_latency &&
         a.latency_samples == b.latency_samples &&
         a.ecn_marked == b.ecn_marked && a.pfc_pauses == b.pfc_pauses &&
         a.switch_drops == b.switch_drops &&
         a.retransmissions == b.retransmissions && a.cnps == b.cnps;
}

void RunRack(const Args& args, Report& report) {
  const auto cfg = RackConfig(args.seed);

  // Set-up is the call with zero warmup and a zero-length window; the same
  // call with warmup kept is what the measured repeats pay before their
  // window opens.
  auto warm = cfg;
  warm.measure = 0;
  auto zero = warm;
  zero.warmup = 0;

  std::vector<double> ops_per_s, allocs_per_op, events_per_s, total_s,
      setup_s, warmup_s;
  RackPass first;
  const Repeats repeats = RepeatFor(args.seconds, [&](int i) {
    const double before_window_s = RunRackPass(warm, nullptr).total_s;
    setup_s.push_back(RunRackPass(zero, nullptr).total_s);
    warmup_s.push_back(before_window_s - setup_s.back());
    const RackPass p = RunRackPass(cfg, nullptr);
    report.Attempt(p.r.ops);
    if (i == 0) {
      first = p;
      report.Set("peak_rss_mib", PeakRssMib());
    } else {
      report.Check(SameRackOutcome(p.r, first.r), RepeatLabel(i), p.r.ops);
    }
    const double window_s = p.total_s - before_window_s;
    ops_per_s.push_back(Ratio(static_cast<double>(p.r.ops), window_s));
    std::printf("repeat %d: %llu ops in %.4f s after set-up and warmup, "
                "%.0f ops/s\n",
                i, static_cast<unsigned long long>(p.r.ops), window_s,
                ops_per_s.back());
    allocs_per_op.push_back(Share(p.allocs, p.r.ops));
    events_per_s.push_back(
        Ratio(static_cast<double>(p.r.sim_events), window_s));
    total_s.push_back(p.total_s);
  });
  ReportHostRates(repeats, ops_per_s, events_per_s, report);
  report.Set("setup_s", NominalTime(setup_s, repeats.slowdown));
  report.Set("workload.testbed_build_s",
             NominalTime(setup_s, repeats.slowdown));
  report.Set("workload.warmup_s", NominalTime(warmup_s, repeats.slowdown));
  report.Set("allocs_per_op", Median(allocs_per_op));
  report.Set("sim_mops", first.r.mops);
  report.Check(PercentileSupported(first.r.latency_samples, 0.99),
               "sample_latency p99 rests on >= 10 samples beyond it (" +
                   std::to_string(first.r.latency_samples) + " samples)");
  report.Set("sim_p50_us", static_cast<double>(first.r.p50_latency) / 1e3);
  report.Set("sim_p99_us", static_cast<double>(first.r.p99_latency) / 1e3);
  report.Set("workload.latency_samples",
             static_cast<double>(first.r.latency_samples));
  report.Set("sim.events_per_op", Share(first.r.sim_events, first.r.ops));

  Hub hub([] { return Nanos{0}; });
  const RackPass traced = RunRackPass(cfg, &hub);
  report.Check(SameRackOutcome(traced.r, first.r),
               "traced rerun reproduces the untraced virtual outcome (ops " +
                   std::to_string(traced.r.ops) + " vs " +
                   std::to_string(first.r.ops) + ", p99 " +
                   std::to_string(traced.r.p99_latency) + " vs " +
                   std::to_string(first.r.p99_latency) + " ns)",
               report.attempted());
  report.Set("telemetry.trace_overhead_pct",
             (Ratio(traced.total_s, Median(total_s)) - 1) * 100);
  ReportLayerCounts(traced.r.telemetry, report);
  // The rack harness binds no switch gauges; its result carries the
  // switch counters instead (whole run, warmup included).
  report.Set("net.switch_ecn_marked", static_cast<double>(traced.r.ecn_marked));
  report.Set("net.switch_pfc_pauses", static_cast<double>(traced.r.pfc_pauses));
  report.Set("net.switch_egress_drops",
             static_cast<double>(traced.r.switch_drops));

  std::vector<OpBreakdown> window_ops;
  for (const auto& [key, op] : hub.tracer.ops()) {
    if (op.Complete() && op.PhaseAt(OpPhase::kIssue) >= cfg.warmup) {
      window_ops.push_back(op);
    }
  }
  report.Check(hub.tracer.dropped_ops() == 0,
               "tracer kept every op (none dropped)");
  ReportSegments(window_ops, report);

  report.Set("common.sparse_memory_ns_per_access",
             SparseMemoryNsPerAccess(cfg.record_size, cfg.records, args.seed));
}

// ---------------------------------------------------------------------------
// faulty_fabric: a chaos::SweepOptions seed sweep on both engines — drop,
// dup, reorder and delay faults, partitions, two engine crashes on odd chaos
// seeds — with every history checked by CheckHistory.
// ---------------------------------------------------------------------------
constexpr std::uint64_t kChaosSeedsPerEngine = 24;
constexpr chaos::EngineKind kEngines[] = {chaos::EngineKind::kSpot,
                                          chaos::EngineKind::kP4};

struct ChaosBatch {
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;  // named by a violation, or in an inexact run
  std::uint64_t failing_runs = 0;
  std::uint64_t faults = 0;
  std::uint64_t crashes = 0;
  std::uint64_t reads_checked = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t pfc_pauses = 0;
  Nanos virtual_ns = 0;  // summed first-invoke -> last-complete spans
  std::vector<Nanos> latency;
  std::uint64_t digest = 1469598103934665603ull;
  double total_s = 0;
  double check_s = 0;
  std::uint64_t allocs = 0;
  std::vector<std::string> first_failures;
  Snapshot snapshot;                     // traced batches: merged over runs
  std::vector<OpBreakdown> op_segments;  // traced batches: every run's ops
};

// FNV-1a over the eight bytes of `v`.
void Fold(std::uint64_t& digest, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (v >> (8 * i)) & 0xff;
    digest *= 1099511628211ull;
  }
}

ChaosBatch RunChaosBatch(std::uint64_t seed, bool traced) {
  ChaosBatch b;
  const auto start = Clock::now();
  ArmAllocs();
  for (const auto engine : kEngines) {
    for (std::uint64_t i = 0; i < kChaosSeedsPerEngine; ++i) {
      const std::uint64_t chaos_seed = seed * kChaosSeedsPerEngine + i + 1;
      // A fresh hub per run: op keys restart in every run.
      Hub hub([] { return Nanos{0}; });
      const chaos::ChaosResult r =
          chaos::RunChaos(chaos::SweepOptions(engine, chaos_seed),
                          traced ? &hub : nullptr);
      const auto c0 = Clock::now();
      const auto violations = chaos::CheckHistory(r.history);
      b.check_s += Seconds(c0, Clock::now());

      std::set<std::uint64_t> bad;
      for (const auto& v : violations) bad.insert(v.op_id);
      for (const auto& v : r.violations) bad.insert(v.op_id);
      if (violations.size() != r.violations.size() || !r.Passed()) {
        ++b.failing_runs;
        b.failed_ops += r.counters_exact ? bad.size() : r.history.size();
        if (b.first_failures.size() < 4) {
          b.first_failures.push_back(
              std::string(chaos::EngineKindName(engine)) + " seed " +
              std::to_string(chaos_seed) + ": " +
              (violations.empty() ? std::string("inexact fault counters")
                                  : violations.front().Format()));
        }
      }
      b.ops += r.history.size();
      b.faults += r.faults_injected;
      b.crashes += r.crashes_executed;
      b.reads_checked += r.reads_checked;
      b.ecn_marked += r.ecn_marked;
      b.pfc_pauses += r.pfc_pauses;
      Nanos lo = std::numeric_limits<Nanos>::max(), hi = 0;
      for (const auto& op : r.history) {
        Fold(b.digest, op.id ^ (static_cast<std::uint64_t>(op.thread) << 48) ^
                           (op.is_write ? 1ull << 63 : 0));
        Fold(b.digest, static_cast<std::uint64_t>(op.invoke));
        Fold(b.digest, static_cast<std::uint64_t>(op.complete));
        Fold(b.digest, op.digest);
        if (op.complete == chaos::kNeverCompleted) continue;
        b.latency.push_back(op.complete - op.invoke);
        lo = std::min(lo, op.invoke);
        hi = std::max(hi, op.complete);
      }
      if (hi > 0) b.virtual_ns += hi - lo;
      if (traced) {
        b.snapshot.MergeFrom(r.telemetry);
        for (const auto& [key, op] : hub.tracer.ops()) {
          b.op_segments.push_back(op);
        }
      }
    }
  }
  b.allocs = DisarmAllocs();
  b.total_s = Seconds(start, Clock::now());
  return b;
}

void RunFaulty(const Args& args, Report& report) {
  std::vector<double> ops_per_s, allocs_per_op, check_s, total_s, setup_s;
  ChaosBatch first;
  const Repeats repeats = RepeatFor(args.seconds, [&](int i) {
    // Set-up: one fabric build and teardown, as a run with no ops and no
    // faults, averaged over the engines.
    const auto t0 = Clock::now();
    for (const auto engine : kEngines) {
      chaos::ChaosOptions empty = chaos::SweepOptions(engine, args.seed);
      empty.workload.ops_per_thread = 0;
      empty.plan = chaos::FaultPlan{};
      chaos::RunChaos(empty);
    }
    setup_s.push_back(Seconds(t0, Clock::now()) / std::size(kEngines));
    ChaosBatch b = RunChaosBatch(args.seed, /*traced=*/false);
    report.Attempt(b.ops);
    // Each seed rebuilds its fabric, so set-up is most of a run: the rate
    // is over the whole sweep, builds included.
    ops_per_s.push_back(Ratio(static_cast<double>(b.ops), b.total_s));
    std::printf("repeat %d: %llu ops in %.4f s, %.0f ops/s\n", i,
                static_cast<unsigned long long>(b.ops), b.total_s,
                ops_per_s.back());
    allocs_per_op.push_back(Share(b.allocs, b.ops));
    check_s.push_back(b.check_s);
    total_s.push_back(b.total_s);
    std::string detail = std::to_string(b.failing_runs) + " of " +
                         std::to_string(2 * kChaosSeedsPerEngine) +
                         " runs failed";
    for (const auto& f : b.first_failures) detail += "; " + f;
    report.Check(b.failing_runs == 0,
                 "repeat " + std::to_string(i) +
                     ": every history linearizes with exact fault counters (" +
                     detail + ")",
                 b.failed_ops);
    if (i == 0) {
      first = std::move(b);
      report.Set("peak_rss_mib", PeakRssMib());
    } else {
      report.Check(b.digest == first.digest, RepeatLabel(i), b.ops);
    }
  });
  ReportHostRates(repeats, ops_per_s, {}, report);
  report.Set("setup_s", NominalTime(setup_s, repeats.slowdown));
  report.Set("workload.testbed_build_s",
             NominalTime(setup_s, repeats.slowdown));
  report.Set("allocs_per_op", Median(allocs_per_op));
  report.Set("chaos.check_s", Median(check_s));
  const std::uint64_t completed = first.latency.size();
  report.Set("sim_mops", Ratio(static_cast<double>(completed),
                               static_cast<double>(first.virtual_ns) / 1e3));
  report.Set("workload.latency_samples", static_cast<double>(completed));
  {
    auto latency = first.latency;
    const auto p50 = Percentile(latency, 0.50);
    const auto p99 = Percentile(latency, 0.99);
    report.Check(p99.has_value(),
                 "op latency p99 rests on >= 10 samples beyond it (" +
                     std::to_string(completed) + " samples)");
    report.Set("sim_p50_us", static_cast<double>(p50.value_or(0)) / 1e3);
    report.Set("sim_p99_us", static_cast<double>(p99.value_or(0)) / 1e3);
  }
  report.Set("chaos.faults_injected_per_op", Share(first.faults, first.ops));
  report.Set("chaos.crashes", static_cast<double>(first.crashes));
  report.Set("chaos.reads_checked", static_cast<double>(first.reads_checked));
  report.Set("net.switch_ecn_marked", static_cast<double>(first.ecn_marked));
  report.Set("net.switch_pfc_pauses", static_cast<double>(first.pfc_pauses));

  const ChaosBatch traced = RunChaosBatch(args.seed, /*traced=*/true);
  report.Check(traced.digest == first.digest,
               "traced rerun reproduces the untraced histories op by op",
               report.attempted());
  report.Set("telemetry.trace_overhead_pct",
             (Ratio(traced.total_s, Median(total_s)) - 1) * 100);
  ReportLayerCounts(traced.snapshot, report);
  ReportSegments(traced.op_segments, report);

  // The chaos workload's slots are 4 KiB apart, one run of them per thread.
  const chaos::WorkloadParams wl =
      chaos::SweepOptions(chaos::EngineKind::kSpot, args.seed).workload;
  const auto footprint =
      static_cast<std::uint64_t>(wl.threads * wl.slots_per_thread) * 4096;
  report.Set("common.sparse_memory_ns_per_access",
             SparseMemoryNsPerAccess(wl.len, footprint / wl.len, args.seed));
}

// ---------------------------------------------------------------------------
// Self-test: the derivations on synthetic inputs, and (with --baseline) the
// hash workloads at sim_throughput's settings against its committed ops.
// ---------------------------------------------------------------------------

// (engine, rep) -> ops, from the rows of a sim_throughput bench JSON.
using BaselineMap = std::map<std::pair<std::string, std::string>, double>;

BaselineMap BaselineOps(const cowbird::telemetry::JsonValue& doc) {
  BaselineMap ops;
  const auto* rows = doc.Find("rows");
  if (rows == nullptr) return ops;
  for (const auto& row : rows->array) {
    const auto* params = row.Find("params");
    const auto* metrics = row.Find("metrics");
    if (params == nullptr || metrics == nullptr) continue;
    const auto* engine = params->Find("engine");
    const auto* rep = params->Find("rep");
    const auto* value = metrics->Find("ops");
    if (engine != nullptr && rep != nullptr && value != nullptr) {
      ops[{engine->string, rep->string}] = value->number;
    }
  }
  return ops;
}

int SelfTest(const std::string& baseline_path) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "[ok]  " : "[FAIL]", what.c_str());
    failures += ok ? 0 : 1;
  };

  // Percentile rule: p99 needs >= 10 samples beyond its rank.
  expect(!PercentileSupported(999, 0.99) && PercentileSupported(1000, 0.99),
         "p99 needs 1000 samples (10 beyond rank 990)");
  expect(!PercentileSupported(19, 0.50) && PercentileSupported(20, 0.50),
         "p50 needs 20 samples (10 beyond rank 10)");
  {
    std::vector<int> v;
    for (int i = 1000; i >= 1; --i) v.push_back(i);
    expect(Percentile(v, 0.99) == 990 && Percentile(v, 0.50) == 500,
           "nearest-rank p99/p50 of 1..1000 are 990/500");
    std::vector<int> few(999, 7);
    expect(!Percentile(few, 0.99).has_value(),
           "p99 of 999 samples is withheld");
  }
  expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5,
         "median of odd/even repeats");
  expect(NominalRate({9, 2, 5, 3}, {0, 1, 2, 3}) == 9 &&
             NominalTime({9, 2, 6, 3}, {0, 1, 2, 3}) == 2 &&
             NominalRate({9}, {0}) == 0,
         "nominal host figures: rate x slowdown, time / slowdown, median, "
         "warm-up repeat left out");

  // Ratio bases, through the same code the workloads use.
  expect(Ratio(3, 4) == 0.75 && Ratio(5, 0) == 0,
         "ratio over its base; empty base reads 0");
  {
    Snapshot s;
    s.counters = {{"probe_found_work", 30},
                  {"probe_idle", 10},
                  {"probe_idle_x", 99}};
    s.gauges = {{"client_reads_retired{instance=1}", 60},
                {"client_reads_retired{instance=2}", 40},
                {"client_writes_retired", 100},
                {"engine_packets_recycled", 50}};
    expect(SumSeries(s, "probe_idle") == 10 &&
               SumSeries(s, "client_reads_retired") == 100,
           "series sums match whole names, over every label set");
    Report r;
    ReportLayerCounts(s, r);
    expect(r.Value("offload.probe_useful_ratio") == 0.75,
           "probe_useful_ratio = found / (found + idle)");
    expect(r.Value("p4.recycled_per_op") == 0.25,
           "/op ratios use retired reads + writes (200) as base");
    expect(r.Value("spot.ops_per_batch") == 0,
           "ops_per_batch with no batches reads 0");
  }

  // Segment tiling check.
  {
    OpBreakdown good;
    good.at = {100, 150, 170, 400, 420};
    OpBreakdown bad = good;
    bad.at.back() = OpBreakdown::kUnset;
    OpBreakdown skewed = good;
    skewed.at[2] = 140;  // executed before parsed
    expect(SegmentTilingFailures({good, bad}) == 0 && good.Total() == 320,
           "complete ops tile their latency; incomplete ops are skipped");
    expect(SegmentTilingFailures({good, skewed}) == 1,
           "a phase stamped out of order fails");
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = cowbird::telemetry::ParseJson(text.str());
    expect(doc.has_value(), "baseline " + baseline_path + " parses");
    const BaselineMap want = doc ? BaselineOps(*doc) : BaselineMap{};
    for (const auto paradigm : {Paradigm::kCowbird, Paradigm::kCowbirdP4}) {
      const std::string engine = workload::ParadigmName(paradigm);
      for (int rep = 0; rep < 3; ++rep) {
        const auto it = want.find({engine, std::to_string(rep)});
        const auto cfg = HashConfig(
            paradigm, static_cast<std::uint64_t>(rep) + 1, Millis(10));
        const auto got = workload::RunHashWorkload(cfg).ops;
        expect(it != want.end() && static_cast<double>(got) == it->second,
               engine + " seed " + std::to_string(rep + 1) + " 10 ms: " +
                   std::to_string(got) + " ops == baseline " +
                   (it == want.end() ? std::string("(missing)")
                                     : std::to_string(static_cast<long long>(
                                           it->second))));
      }
    }
  }
  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<hash_spot|hash_p4|rack_incast|faulty_fabric> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test [--baseline <path>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool self_test = false;
  bool have_workload = false;
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (flag == "--baseline") {
      baseline = value;
    } else {
      return Usage();
    }
  }
  if (self_test) return SelfTest(baseline);
  if (!have_workload) return Usage();

  Report report;
  if (args.workload == "hash_spot") {
    RunHash(Paradigm::kCowbird, args, report);
  } else if (args.workload == "hash_p4") {
    RunHash(Paradigm::kCowbirdP4, args, report);
  } else if (args.workload == "rack_incast") {
    RunRack(args, report);
  } else if (args.workload == "faulty_fabric") {
    RunFaulty(args, report);
  } else {
    return Usage();
  }
  report.Print(args.workload, args.seed, args.seconds, args.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
