// Google-benchmark microbenchmarks of the implementation's hot paths —
// real wall-clock numbers for the code the simulator executes per event.
// These bound the simulator's own throughput (events/s), independent of
// the modelled virtual-time costs.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "common/sparse_memory.h"
#include "core/request.h"
#include "net/switch.h"
#include "rdma/device.h"
#include "rdma/wire.h"
#include "sim/simulation.h"
#include "telemetry/hub.h"
#include "workload/generator.h"

namespace {

using namespace cowbird;

void BM_WireBuildParseReadRequest(benchmark::State& state) {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kReadRequest;
  bth.dest_qp = 7;
  rdma::Reth reth{0xDEADBEEF, 0x1234, 4096};
  for (auto _ : state) {
    bth.psn = static_cast<std::uint32_t>(state.iterations());
    net::Packet p = rdma::BuildRdmaPacket(1, 2, net::Priority::kRdma, bth,
                                          &reth, nullptr, {});
    auto view = rdma::ParseRdmaPacket(p);
    benchmark::DoNotOptimize(view.bth.psn);
  }
}
BENCHMARK(BM_WireBuildParseReadRequest);

void BM_WireBuildParseWithPayload(benchmark::State& state) {
  std::vector<std::uint8_t> payload(state.range(0));
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kReadResponseOnly;
  rdma::Aeth aeth{};
  for (auto _ : state) {
    net::Packet p = rdma::BuildRdmaPacket(2, 1, net::Priority::kRdma, bth,
                                          nullptr, &aeth, payload);
    auto view = rdma::ParseRdmaPacket(p);
    benchmark::DoNotOptimize(view.payload.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireBuildParseWithPayload)->Arg(64)->Arg(1024);

void BM_RingCursorsPushPop(benchmark::State& state) {
  RingCursors ring(1024);
  for (auto _ : state) {
    const auto c = ring.Push();
    benchmark::DoNotOptimize(ring.Slot(c));
    ring.Pop();
  }
}
BENCHMARK(BM_RingCursorsPushPop);

void BM_MetadataPublishParse(benchmark::State& state) {
  SparseMemory mem;
  core::RequestMetadata meta;
  meta.rw_type = core::RwType::kRead;
  meta.length = 256;
  std::vector<std::uint8_t> raw(core::kMetadataEntryBytes);
  for (auto _ : state) {
    meta.req_addr = static_cast<std::uint64_t>(state.iterations());
    meta.Publish(mem, 0x1000);
    mem.Read(0x1000, raw);
    auto parsed = core::RequestMetadata::ParseBytes(raw);
    benchmark::DoNotOptimize(parsed.req_addr);
  }
}
BENCHMARK(BM_MetadataPublishParse);

void BM_SparseMemoryCopy(benchmark::State& state) {
  SparseMemory mem;
  std::vector<std::uint8_t> buf(state.range(0), 0xAB);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    mem.Write(addr, buf);
    mem.Read(addr, buf);
    addr = (addr + 8192) % (64 << 20);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_SparseMemoryCopy)->Arg(64)->Arg(1024)->Arg(32768);

// A 256 B record write plus read at a random record of a 51 MB pre-mapped
// region: the shape of the datapath's pool accesses, where nearly every
// access misses the page cache and takes the extent lookup.
void BM_SparseMemoryRandomRecord(benchmark::State& state) {
  constexpr std::uint64_t kRecord = 256;
  constexpr std::uint64_t kRecords = 200'000;
  SparseMemory mem;
  mem.PreFault(0, kRecord * kRecords);
  std::vector<std::uint8_t> buf(kRecord, 0xAB);
  Rng rng(9973);
  for (auto _ : state) {
    const std::uint64_t addr = rng.Below(kRecords) * kRecord;
    mem.Write(addr, buf);
    mem.Read(addr, buf);
  }
  state.SetBytesProcessed(state.iterations() * kRecord * 2);
}
BENCHMARK(BM_SparseMemoryRandomRecord);

// Mapping 64 MiB up front reserves address space only, so setup cost does
// not grow with the range.
void BM_SparseMemoryPreFault(benchmark::State& state) {
  for (auto _ : state) {
    SparseMemory mem;
    mem.PreFault(0x1000'0000, MiB(64));
    benchmark::DoNotOptimize(mem.ResidentPages());
  }
}
BENCHMARK(BM_SparseMemoryPreFault);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(1);
  workload::ZipfianGenerator gen(1'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.NextScrambled(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i, [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

// The hash loop's queue shape: 64 event chains in flight, each event
// scheduling its successor 16-512 ns ahead (a NIC, link or switch hop),
// and one event in 256 also leaving a timeout 64-128 us ahead that fires
// as a no-op (GBN/batch/PFC timers). BM_EventQueueScheduleDispatch drains
// a pre-loaded queue instead, which the datapath never does.
void BM_EventQueueSteadyState(benchmark::State& state) {
  constexpr int kInFlight = 64;
  constexpr std::size_t kTable = 4096;  // power of two
  Rng rng(20261019);
  std::vector<Nanos> hops(kTable);
  std::vector<Nanos> timeouts(kTable, -1);
  for (std::size_t i = 0; i < kTable; ++i) {
    hops[i] = 16 + static_cast<Nanos>(rng.Below(497));
    if (rng.Below(256) == 0) {
      timeouts[i] = 64000 + static_cast<Nanos>(rng.Below(64000));
    }
  }
  struct Chains {
    sim::Simulation sim;
    const std::vector<Nanos>& hops;
    const std::vector<Nanos>& timeouts;
    std::size_t next = 0;
    void Fire() {
      const std::size_t i = next++ & (kTable - 1);
      sim.ScheduleAfter(hops[i], [this] { Fire(); });
      if (timeouts[i] >= 0) sim.ScheduleAfter(timeouts[i], [] {});
    }
  } chains{{}, hops, timeouts};
  for (int c = 0; c < kInFlight; ++c) chains.Fire();
  // Reach the steady far-event population before timing.
  chains.sim.RunFor(200'000);
  const std::uint64_t before = chains.sim.EventsProcessed();
  for (auto _ : state) chains.sim.RunFor(1000);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(chains.sim.EventsProcessed() - before));
}
BENCHMARK(BM_EventQueueSteadyState);

// The retransmission-timer pattern: every dispatched event (an ACK) pushes
// one sim::Deadline a full timeout ahead. The event pool stays three deep
// (the running ACK, the next one and one wake) instead of holding one dead
// entry per re-arm within the timeout (timeout x ACK rate = 1000 here);
// the pool_high_water counter reports the depth.
void BM_DeadlineRearm(benchmark::State& state) {
  constexpr int kAcks = 1000;
  constexpr Nanos kTimeout = 1000;
  struct AckStream {
    sim::Simulation& sim;
    sim::Deadline& timer;
    int left;
    void Ack() {
      timer.Arm(kTimeout);
      if (--left > 0) sim.ScheduleAfter(1, [this] { Ack(); });
    }
  };
  std::uint64_t high_water = 0;
  int fired = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    sim::Deadline timer(sim, [&fired] { ++fired; });
    AckStream stream{sim, timer, kAcks};
    state.ResumeTiming();
    sim.ScheduleAt(0, [&stream] { stream.Ack(); });
    sim.Run();
    high_water = sim.EventPoolStats().high_water;
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * kAcks);
  state.counters["pool_high_water"] = static_cast<double>(high_water);
}
BENCHMARK(BM_DeadlineRearm);

// One RDMA packet NIC -> switch -> NIC on an idle fabric: the device's tx
// closure, the uplink, the switch pipeline, the egress link and the rx
// closure (the packet names no QP, so the receiver parses and drops it).
// Each link reserves its transmit-complete slot without queueing it, so a
// packet that finds both links free costs 5 events, not 7.
void BM_LinkHop(benchmark::State& state) {
  sim::Simulation sim;
  net::Switch sw(sim, net::Switch::Config{});
  net::HostNic nic_a(sim, 1, BitRate::Gbps(100), 500);
  net::HostNic nic_b(sim, 2, BitRate::Gbps(100), 500);
  nic_a.ConnectTo(sw);
  nic_b.ConnectTo(sw);
  SparseMemory mem_a;
  SparseMemory mem_b;
  rdma::Device dev_a(nic_a, mem_a, rdma::NicConfig{});
  rdma::Device dev_b(nic_b, mem_b, rdma::NicConfig{});
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kReadRequest;
  bth.dest_qp = 7;
  const rdma::Reth reth{0x1000, 0x1234, 256};
  for (auto _ : state) {
    dev_a.EmitPacket(rdma::BuildRdmaPacket(1, 2, net::Priority::kRdma, bth,
                                           &reth, nullptr, {}));
    sim.Run();
  }
  benchmark::DoNotOptimize(dev_b.packets_received());
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_packet"] =
      static_cast<double>(sim.EventsProcessed()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_LinkHop);

void BM_CoroutineDelayRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim.Spawn([](sim::Simulation& s) -> sim::Task<void> {
      for (int i = 0; i < 1000; ++i) co_await s.Delay(1);
    }(sim));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayRoundTrip);

// --- telemetry hot paths -------------------------------------------------
// The registry's claim is near-zero hot-path cost: a bound Counter::Add is
// one increment through a pointer, and an unbound one is a test-and-skip.
// Both must stay within noise of a plain local increment.

void BM_TelemetryCounterAdd(benchmark::State& state) {
  telemetry::MetricRegistry registry;
  telemetry::Counter counter =
      registry.GetCounter("bench_ops", {{"engine", "spot"}});
  for (auto _ : state) {
    counter.Add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryCounterAddUnbound(benchmark::State& state) {
  telemetry::Counter counter;  // unbound: telemetry off, writes no-op
  for (auto _ : state) {
    counter.Add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_TelemetryCounterAddUnbound);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  telemetry::MetricRegistry registry;
  telemetry::Histogram histogram = registry.GetHistogram("bench_lat");
  std::uint64_t v = 1;
  for (auto _ : state) {
    histogram.Observe(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cover all buckets
  }
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_TelemetryRecordOpPhase(benchmark::State& state) {
  // One op-lifecycle stamp: map lookup + array store. This is the most
  // expensive per-op telemetry cost the engines pay.
  telemetry::SpanTracer tracer([] { return Nanos{0}; });
  std::uint64_t seq = 0;
  for (auto _ : state) {
    tracer.RecordOpAt(telemetry::OpKey{1, 0, false, ++seq},
                      telemetry::OpPhase::kIssue, 100);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryRecordOpPhase);

void BM_TelemetrySnapshot(benchmark::State& state) {
  // Snapshot cost scales with series count, not with hot-path traffic.
  telemetry::MetricRegistry registry;
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter("c" + std::to_string(i)).Add(i);
    registry.GetGauge("g" + std::to_string(i)).Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.TakeSnapshot().counters.size());
  }
}
BENCHMARK(BM_TelemetrySnapshot);

}  // namespace

BENCHMARK_MAIN();
