// Byte-addressable memory for simulated nodes.
//
// Node address spaces in the simulation can be large (a memory pool is tens
// of GiB in the paper), but benchmarks only touch a fraction. SparseMemory
// backs an address space with a few flat extents, each one anonymous
// private host mapping: mapping reserves address space only, and the kernel
// zero-fills a page the first time it is touched. rdma::Device maps every
// MR it registers (the moral equivalent of ibv_reg_mr pinning); PreFault
// maps pinned buffers that are never registered. A write to unmapped
// memory maps the aligned kMapChunk around it; reads of never-mapped
// memory return zeros, like fresh anonymous mappings.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace cowbird {

// An access whose range [addr, addr + len) does not end inside the 64-bit
// address space, or a Write or PreFault that reaches the top kMapChunk,
// which cannot be mapped (an extent's end there would wrap to 0). No
// simulated address space wraps, so the access is refused rather than
// continued at address 0.
class AddressRangeError : public std::out_of_range {
 public:
  AddressRangeError(const char* op, std::uint64_t addr, std::uint64_t len,
                    std::uint64_t limit);
  std::uint64_t addr() const { return addr_; }
  std::uint64_t len() const { return len_; }

 private:
  std::uint64_t addr_;
  std::uint64_t len_;
};

class SparseMemory {
 public:
  static constexpr std::uint64_t kPageSize = 4096;
  // Granularity of the mapping a write to unmapped memory creates. It is
  // virtual only, so a large chunk costs no RSS and keeps the extent count
  // (and the process's mapping count) small.
  static constexpr std::uint64_t kMapChunk = std::uint64_t{1} << 20;

  SparseMemory() = default;
  ~SparseMemory() { Unmap(); }
  SparseMemory(const SparseMemory&) = delete;
  SparseMemory& operator=(const SparseMemory&) = delete;
  // A move hands the mappings over and leaves the source empty.
  SparseMemory(SparseMemory&& other) noexcept
      : extents_(std::move(other.extents_)) {
    other.extents_.clear();
    other.cache_ = {};
  }
  SparseMemory& operator=(SparseMemory&& other) noexcept {
    if (this != &other) {
      Unmap();
      extents_ = std::move(other.extents_);
      other.extents_.clear();
      cache_ = {};
      other.cache_ = {};
    }
    return *this;
  }

  // Exclusive end of the mappable space: the top kMapChunk stays unmapped.
  static constexpr std::uint64_t kMapLimit = ~std::uint64_t{0} - kMapChunk + 1;

  // Both throw AddressRangeError for a range that runs past 2^64 - 1; Write
  // also for one that runs past kMapLimit.
  void Write(std::uint64_t addr, std::span<const std::uint8_t> data);
  void Read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  // Maps the page-aligned hull of [addr, addr+len) up front, so no write
  // inside it maps anything later. Only the uncovered gaps are mapped:
  // bytes already written stay, and no page is touched. Throws
  // AddressRangeError for a range that runs past kMapLimit.
  void PreFault(std::uint64_t addr, Bytes len);

  // Typed helpers for the fixed-width fields the protocol moves around.
  template <typename T>
  void WriteValue(std::uint64_t addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    Write(addr, std::span<const std::uint8_t>(raw, sizeof(T)));
  }

  template <typename T>
  T ReadValue(std::uint64_t addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    Read(addr, std::span<std::uint8_t>(raw, sizeof(T)));
    T value;
    std::memcpy(&value, raw, sizeof(T));
    return value;
  }

  // Mapped pages (the kernel backs only the touched ones) and the number
  // of host mappings behind them.
  std::size_t ResidentPages() const;
  std::size_t Extents() const { return extents_.size(); }

 private:
  // [base, end) of the simulated address space backed by host memory at
  // `host`. Page-aligned, disjoint, sorted by base.
  struct Extent {
    std::uint64_t base = 0;
    std::uint64_t end = 0;
    std::uint8_t* host = nullptr;
  };

  // Host bytes backing `addr` and, in `*avail`, how many follow it inside
  // the same extent; null when `addr` is unmapped.
  std::uint8_t* Locate(std::uint64_t addr, std::uint64_t* avail) const;
  // First extent whose base lies above `addr`.
  std::vector<Extent>::const_iterator After(std::uint64_t addr) const;
  // The extent holding `addr`, or null.
  const Extent* Find(std::uint64_t addr) const;
  // Maps [lo, hi), which must be an unmapped, page-aligned gap.
  void Map(std::uint64_t lo, std::uint64_t hi);
  void Unmap();
  bool CopyInsideExtent(std::uint64_t addr, const std::uint8_t* host,
                        std::uint64_t len) const;

  std::vector<Extent> extents_;
  // Direct-mapped cache over the extent table. The datapath hammers a
  // handful of ring/staging pages per op; a hit skips the binary search.
  // Extents are never unmapped before destruction, so a cached pointer can
  // only go stale through move (handled above).
  struct CachedPage {
    std::uint64_t index = ~std::uint64_t{0};
    std::uint8_t* page = nullptr;  // host address of the page's first byte
    std::uint64_t end = 0;         // end of the extent holding the page
  };
  static constexpr std::size_t kCacheWays = 32;
  mutable std::array<CachedPage, kCacheWays> cache_{};
};

}  // namespace cowbird
