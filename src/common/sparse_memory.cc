#include "common/sparse_memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>

namespace cowbird {

namespace {
constexpr std::uint64_t AlignDown(std::uint64_t v, std::uint64_t align) {
  return v / align * align;
}
constexpr std::uint64_t AlignUp(std::uint64_t v, std::uint64_t align) {
  return AlignDown(v + align - 1, align);
}

std::string RangeMessage(const char* op, std::uint64_t addr,
                         std::uint64_t len, std::uint64_t limit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SparseMemory::%s of %llu bytes at 0x%llx runs past 0x%llx",
                op, static_cast<unsigned long long>(len),
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(limit));
  return buf;
}

// [addr, addr + len) must end at or before `limit`: no wrap past 2^64.
void CheckRange(const char* op, std::uint64_t addr, std::uint64_t len,
                std::uint64_t limit = ~std::uint64_t{0}) {
  if (addr > limit || len > limit - addr) [[unlikely]] {
    throw AddressRangeError(op, addr, len, limit);
  }
}
}  // namespace

AddressRangeError::AddressRangeError(const char* op, std::uint64_t addr,
                                     std::uint64_t len, std::uint64_t limit)
    : std::out_of_range(RangeMessage(op, addr, len, limit)),
      addr_(addr),
      len_(len) {}

std::vector<SparseMemory::Extent>::const_iterator SparseMemory::After(
    std::uint64_t addr) const {
  return std::upper_bound(
      extents_.begin(), extents_.end(), addr,
      [](std::uint64_t a, const Extent& e) { return a < e.base; });
}

const SparseMemory::Extent* SparseMemory::Find(std::uint64_t addr) const {
  const auto next = After(addr);
  if (next == extents_.begin() || addr >= std::prev(next)->end) return nullptr;
  return &*std::prev(next);
}

std::uint8_t* SparseMemory::Locate(std::uint64_t addr,
                                   std::uint64_t* avail) const {
  const std::uint64_t index = addr / kPageSize;
  CachedPage& slot = cache_[index % kCacheWays];
  if (slot.index != index) {
    const Extent* e = Find(addr);
    if (e == nullptr) return nullptr;  // unmapped: not cached
    slot = CachedPage{index, e->host + (index * kPageSize - e->base), e->end};
  }
  *avail = slot.end - addr;
  return slot.page + addr % kPageSize;
}

bool SparseMemory::CopyInsideExtent(std::uint64_t addr,
                                    const std::uint8_t* host,
                                    std::uint64_t len) const {
  const Extent* e = Find(addr);
  return e != nullptr && len <= e->end - addr &&
         host == e->host + (addr - e->base);
}

void SparseMemory::Map(std::uint64_t lo, std::uint64_t hi) {
  COWBIRD_CHECK(lo < hi && lo % kPageSize == 0 && hi % kPageSize == 0);
  void* host = mmap(nullptr, hi - lo, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  COWBIRD_CHECK(host != MAP_FAILED);
  extents_.insert(After(lo), Extent{lo, hi, static_cast<std::uint8_t*>(host)});
}

void SparseMemory::Unmap() {
  for (const Extent& e : extents_) munmap(e.host, e.end - e.base);
  extents_.clear();
  cache_ = {};
}

void SparseMemory::PreFault(std::uint64_t addr, Bytes len) {
  if (len <= 0) return;
  CheckRange("PreFault", addr, len, kMapLimit);
  std::uint64_t pos = AlignDown(addr, kPageSize);
  const std::uint64_t hi =
      AlignUp(addr + static_cast<std::uint64_t>(len), kPageSize);
  while (pos < hi) {
    if (const Extent* e = Find(pos)) {
      pos = e->end;  // already mapped
      continue;
    }
    const auto next = After(pos);
    const std::uint64_t gap_end =
        next == extents_.end() ? hi : std::min(hi, next->base);
    Map(pos, gap_end);
    pos = gap_end;
  }
}

std::size_t SparseMemory::ResidentPages() const {
  std::uint64_t bytes = 0;
  for (const Extent& e : extents_) bytes += e.end - e.base;
  return static_cast<std::size_t>(bytes / kPageSize);
}

void SparseMemory::Write(std::uint64_t addr,
                         std::span<const std::uint8_t> data) {
  CheckRange("Write", addr, data.size(), kMapLimit);
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = addr + done;
    std::uint64_t avail = 0;
    std::uint8_t* dst = Locate(pos, &avail);
    if (dst == nullptr) {
      // Map the aligned chunk around `pos`, clipped to its neighbours.
      const auto next = After(pos);
      std::uint64_t lo = AlignDown(pos, kMapChunk);
      std::uint64_t hi = lo + kMapChunk;
      if (next != extents_.begin()) lo = std::max(lo, std::prev(next)->end);
      if (next != extents_.end()) hi = std::min(hi, next->base);
      Map(lo, hi);
      continue;
    }
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(avail, data.size() - done));
    COWBIRD_DCHECK(CopyInsideExtent(pos, dst, n));
    std::memcpy(dst, data.data() + done, n);
    done += n;
  }
}

void SparseMemory::Read(std::uint64_t addr, std::span<std::uint8_t> out) const {
  CheckRange("Read", addr, out.size());
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t pos = addr + done;
    const std::uint64_t left = out.size() - done;
    std::uint64_t avail = 0;
    if (const std::uint8_t* src = Locate(pos, &avail)) {
      const auto n = static_cast<std::size_t>(std::min(avail, left));
      COWBIRD_DCHECK(CopyInsideExtent(pos, src, n));
      std::memcpy(out.data() + done, src, n);
      done += n;
    } else {
      // Never mapped: zeros up to the next extent.
      const auto next = After(pos);
      const std::uint64_t gap = next == extents_.end()
                                    ? std::numeric_limits<std::uint64_t>::max()
                                    : next->base - pos;
      const auto n = static_cast<std::size_t>(std::min(gap, left));
      std::memset(out.data() + done, 0, n);
      done += n;
    }
  }
}

}  // namespace cowbird
