// Host speed reference: a fixed workload, independent of src/, whose time per
// step tracks how fast the shared host runs right now.
//
// Other tenants of the host slow it down from second to second and in phases
// that last minutes, mostly through the memory system they share with us, so
// every host-clock rate the benchmark takes moves with them. The reference is
// timed between the workload's repeats; dividing a repeat's rate by the host
// slowdown seen around it cancels most of that drift. Its four kernels cover
// what the simulator spends host time on: a dependent pointer chase past the
// last-level cache, a binary heap of timestamped events, hash-map lookups, and
// an event loop that copies records, looks up keys and allocates.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

class HostSpeedReference {
 public:
  // Geometric mean ns per step of the four kernels on an unloaded host of
  // the kind the benchmark was tuned on: the host whose slowdown is 1.
  static constexpr double kNominalNsPerStep = 140;

  HostSpeedReference() : chain_(kChainNodes), records_(kRecordBytes) {
    // One random cycle through every node, so the chase cannot be prefetched.
    std::vector<std::uint32_t> order(kChainNodes);
    for (std::uint32_t i = 0; i < kChainNodes; ++i) order[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = kChainNodes - 1; i > 0; --i) {
      std::swap(order[i], order[Next(x) % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < kChainNodes; ++i) {
      chain_[order[i]].next = &chain_[order[(i + 1) % kChainNodes]];
    }
    map_.reserve(kMapKeys);
    for (std::uint64_t i = 0; i < kMapKeys; ++i) map_[Key(i)] = i;
  }

  // Geometric mean ns per step of the four kernels, timed now.
  double SampleNsPerStep() {
    const double product = Chase() * Heap() * Lookup() * EventLoop();
    return std::pow(product, 0.25);
  }

 private:
  struct Node {
    Node* next;
    char pad[56];  // one node per cache line
  };
  using Clock = std::chrono::steady_clock;
  using Event = std::pair<std::uint64_t, std::uint32_t>;

  static constexpr std::uint32_t kChainNodes = (128u << 20) / sizeof(Node);
  static constexpr std::size_t kRecordBytes = 64u << 20;
  static constexpr std::size_t kRecord = 256;
  static constexpr std::uint64_t kMapKeys = 2'000'000;

  static std::uint64_t Next(std::uint64_t& x) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 16;
  }
  static std::uint64_t Key(std::uint64_t i) { return i * 2654435761u; }
  static double NsPerStep(Clock::time_point start, int steps) {
    const std::chrono::duration<double, std::nano> d = Clock::now() - start;
    return d.count() / steps;
  }

  double Chase() {
    constexpr int kSteps = 200'000;
    const Node* p = &chain_[0];
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) p = p->next;
    sink_ += reinterpret_cast<std::uintptr_t>(p) & 1;
    return NsPerStep(t0, kSteps);
  }

  double Heap() {
    constexpr int kSteps = 500'000;
    std::priority_queue<Event> q;
    std::uint64_t x = 1;
    for (std::uint32_t i = 0; i < 8192; ++i) q.push({Next(x), i});
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      const Event e = q.top();
      q.pop();
      q.push({Next(x) ^ e.first, e.second});
    }
    return NsPerStep(t0, kSteps);
  }

  double Lookup() {
    constexpr int kSteps = 250'000;
    std::uint64_t x = 3;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      sink_ += map_.find(Key(Next(x) % kMapKeys))->second;
    }
    return NsPerStep(t0, kSteps);
  }

  double EventLoop() {
    constexpr int kSteps = 150'000;
    constexpr std::size_t kSlots = kRecordBytes / kRecord;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
    std::uint64_t x = 5;
    for (std::uint32_t i = 0; i < 4096; ++i) q.push({Next(x) >> 24, i});
    char record[kRecord];
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      const Event e = q.top();
      q.pop();
      const std::uint64_t r = Next(x);
      std::memcpy(record, &records_[r % kSlots * kRecord], kRecord);
      record[0] ^= 1;
      std::memcpy(&records_[(r >> 24) % kSlots * kRecord], record, kRecord);
      sink_ += map_.find(Key((r >> 8) % kMapKeys))->second;
      const auto scratch = std::make_unique<std::uint64_t[]>(8);
      sink_ += scratch[0];
      q.push({e.first + (r & 1023), e.second});
    }
    return NsPerStep(t0, kSteps);
  }

  std::vector<Node> chain_;
  std::vector<char> records_;
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::uint64_t sink_ = 0;  // keeps every kernel's loads live
};

}  // namespace perfbench
