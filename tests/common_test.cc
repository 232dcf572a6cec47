#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "common/sparse_memory.h"
#include "common/stats.h"
#include "common/units.h"
#include "test_seed.h"

namespace cowbird {
namespace {

TEST(Units, TransmitTimeMatchesRate) {
  const BitRate r = BitRate::Gbps(100);
  // 100 Gbps = 12.5 bytes per ns → 1250 bytes take 100 ns.
  EXPECT_EQ(r.TransmitTime(1250), 100);
  // Rounds up: 1 byte at 100 Gbps is 0.08 ns → 1 ns.
  EXPECT_EQ(r.TransmitTime(1), 1);
  EXPECT_EQ(r.TransmitTime(0), 0);
}

TEST(Units, TransmitTimeSlowLink) {
  const BitRate r = BitRate::Mbps(1);
  EXPECT_EQ(r.TransmitTime(125), Micros(1000));  // 1000 bits at 1 Mbps = 1 ms
}

TEST(Units, MopsConversion) {
  EXPECT_DOUBLE_EQ(Mops(1'000'000, Seconds(1)), 1.0);
  EXPECT_DOUBLE_EQ(Mops(0, Seconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(Mops(5, 0), 0.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.Between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(OnlineStats, MeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(PercentileSampler, ExactQuantiles) {
  PercentileSampler p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_NEAR(p.Median(), 50.5, 1e-9);
  EXPECT_NEAR(p.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.P99(), 99.01, 1e-9);
}

TEST(PercentileSampler, InterleavedAddAndQuery) {
  PercentileSampler p;
  p.Add(10);
  EXPECT_DOUBLE_EQ(p.Median(), 10.0);
  p.Add(20);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(p.Median(), 15.0);
}

TEST(PercentileSampler, AddAfterQuantileInvalidatesSortCache) {
  // Regression: Add() used to leave the sorted_ flag set after a Quantile()
  // call, so later queries indexed into a stale, unsorted vector. Append
  // out of order so a stale cache yields a visibly wrong rank.
  PercentileSampler p;
  p.Add(30);
  EXPECT_DOUBLE_EQ(p.Median(), 30.0);  // sorts and caches
  p.Add(10);
  p.Add(20);
  EXPECT_DOUBLE_EQ(p.Median(), 20.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 30.0);
}

TEST(PercentileSampler, ClearResetsSortCache) {
  PercentileSampler p;
  p.Add(5);
  EXPECT_DOUBLE_EQ(p.Median(), 5.0);
  p.Clear();
  p.Add(9);
  p.Add(1);
  EXPECT_DOUBLE_EQ(p.Median(), 5.0);
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 1.0);
}

TEST(LogHistogram, QuantileBounds) {
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.Add(100);   // bucket [64,128)
  for (int i = 0; i < 10; ++i) h.Add(100000);  // far tail
  EXPECT_LE(h.QuantileUpperBound(0.5), 127u);
  EXPECT_GE(h.QuantileUpperBound(0.999), 100000u - 1);
}

TEST(RingCursors, PushPopWrap) {
  RingCursors ring(4);
  EXPECT_TRUE(ring.Empty());
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_FALSE(ring.Full());
      const auto cursor = ring.Push();
      EXPECT_EQ(ring.Slot(cursor), (round * 4 + i) % 4);
    }
    EXPECT_TRUE(ring.Full());
    for (std::uint64_t i = 0; i < 4; ++i) ring.Pop();
    EXPECT_TRUE(ring.Empty());
  }
  // Cursors are monotonic, never reset by wrap.
  EXPECT_EQ(ring.head(), 12u);
  EXPECT_EQ(ring.tail(), 12u);
}

TEST(RingCursors, AdvanceTo) {
  RingCursors ring(8);
  for (int i = 0; i < 5; ++i) ring.Push();
  ring.AdvanceHeadTo(3);
  EXPECT_EQ(ring.Size(), 2u);
  ring.AdvanceTailTo(9);
  EXPECT_EQ(ring.Size(), 6u);
}

TEST(ByteRing, ReserveRelease) {
  ByteRing ring(100);
  EXPECT_TRUE(ring.CanReserve(100));
  EXPECT_FALSE(ring.CanReserve(101));
  const auto at = ring.Reserve(60);
  EXPECT_EQ(at, 0u);
  EXPECT_EQ(ring.Free(), 40u);
  ring.Release(60);
  EXPECT_EQ(ring.Free(), 100u);
}

TEST(ByteRing, SplitSpanWraps) {
  ByteRing ring(100);
  ring.Reserve(80);
  ring.Release(80);
  const auto at = ring.Reserve(50);  // bytes 80..130 → wraps at 100
  const auto split = ring.SplitSpan(at, 50);
  EXPECT_EQ(split.first.offset, 80u);
  EXPECT_EQ(split.first.len, 20u);
  EXPECT_EQ(split.second.offset, 0u);
  EXPECT_EQ(split.second.len, 30u);
}

TEST(ByteRing, SplitSpanNoWrap) {
  ByteRing ring(100);
  const auto split = ring.SplitSpan(10, 50);
  EXPECT_EQ(split.first.offset, 10u);
  EXPECT_EQ(split.first.len, 50u);
  EXPECT_EQ(split.second.len, 0u);
}

TEST(SparseMemory, ReadBackWritten) {
  SparseMemory mem;
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  mem.Write(123456, data);
  std::vector<std::uint8_t> out(data.size());
  mem.Read(123456, out);
  EXPECT_EQ(out, data);
}

TEST(SparseMemory, UnwrittenReadsZero) {
  SparseMemory mem;
  std::vector<std::uint8_t> out(64, 0xFF);
  mem.Read(1ull << 40, out);
  for (auto b : out) EXPECT_EQ(b, 0);
}

TEST(SparseMemory, CrossPageWrite) {
  SparseMemory mem;
  std::vector<std::uint8_t> data(SparseMemory::kPageSize * 3, 0xAB);
  const std::uint64_t addr = SparseMemory::kPageSize - 100;
  mem.Write(addr, data);
  std::vector<std::uint8_t> out(data.size());
  mem.Read(addr, out);
  EXPECT_EQ(out, data);
  // The write mapped the one aligned chunk around it.
  EXPECT_EQ(mem.Extents(), 1u);
  EXPECT_EQ(mem.ResidentPages(),
            SparseMemory::kMapChunk / SparseMemory::kPageSize);
}

TEST(SparseMemory, RangePastTheTopOfTheAddressSpaceIsRefused) {
  SparseMemory mem;
  constexpr std::uint64_t kTop = ~std::uint64_t{0};  // 2^64 - 1
  const std::uint64_t addr = kTop - 101;              // 2^64 - 102
  std::vector<std::uint8_t> out(9002, 0xEE);
  try {
    mem.Read(addr, out);
    ADD_FAILURE() << "a 9002-byte read at 2^64-102 must not wrap to 0";
  } catch (const AddressRangeError& e) {
    EXPECT_EQ(e.addr(), addr);
    EXPECT_EQ(e.len(), 9002u);
    EXPECT_NE(std::string(e.what()).find("Read of 9002 bytes"),
              std::string::npos);
  }
  // Refused before any byte moved, and nothing was mapped.
  EXPECT_EQ(out, std::vector<std::uint8_t>(9002, 0xEE));
  EXPECT_THROW(mem.Write(addr, out), AddressRangeError);
  EXPECT_EQ(mem.Extents(), 0u);

  // A range ending at the last address is fine.
  std::vector<std::uint8_t> tail(101, 0xEE);
  mem.Read(addr, tail);
  EXPECT_EQ(tail, std::vector<std::uint8_t>(101, 0));
  EXPECT_THROW(mem.ReadValue<std::uint64_t>(kTop - 4), AddressRangeError);

  // The top MiB cannot be mapped: its chunk's end would wrap to 0. A write
  // there, and a PreFault whose page hull reaches it, are refused with
  // nothing mapped.
  const std::uint64_t limit = SparseMemory::kMapLimit;  // 2^64 - 2^20
  std::vector<std::uint8_t> bytes(16, 0xAB);
  EXPECT_THROW(mem.Write(kTop - 4095, bytes), AddressRangeError);
  EXPECT_THROW(mem.Write(limit - 8, bytes), AddressRangeError);
  EXPECT_THROW(mem.PreFault(kTop - 4095, 4096), AddressRangeError);  // 2^64
  EXPECT_THROW(mem.PreFault(kTop - 4095, 4095), AddressRangeError);
  EXPECT_THROW(mem.PreFault(limit - 4096, 4097), AddressRangeError);
  EXPECT_EQ(mem.Extents(), 0u);

  // Just below the limit both work.
  mem.PreFault(limit - 8192, 4096);
  mem.Write(limit - 16, bytes);
  std::vector<std::uint8_t> back(16, 0);
  mem.Read(limit - 16, back);
  EXPECT_EQ(back, bytes);
  EXPECT_EQ(mem.Extents(), 2u);
}

TEST(SparseMemory, TypedValues) {
  SparseMemory mem;
  mem.WriteValue<std::uint64_t>(8, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(mem.ReadValue<std::uint64_t>(8), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(mem.ReadValue<std::uint32_t>(8), 0xCAFEF00Du);  // little endian
}

TEST(SparseMemory, PreFaultKeepsWrittenBytesAndMapsOnlyGaps) {
  SparseMemory mem;
  const std::uint64_t base = 5 * SparseMemory::kMapChunk + 100;
  std::vector<std::uint8_t> data(3000, 0x5A);
  mem.Write(base, data);
  ASSERT_EQ(mem.Extents(), 1u);
  // Covers the mapped chunk plus gaps on both sides of it; the unaligned
  // range's page hull spills one page into a fifth chunk.
  mem.PreFault(base - 2 * SparseMemory::kMapChunk,
               4 * SparseMemory::kMapChunk);
  EXPECT_EQ(mem.Extents(), 3u);
  EXPECT_EQ(mem.ResidentPages(),
            4 * SparseMemory::kMapChunk / SparseMemory::kPageSize + 1);
  std::vector<std::uint8_t> out(data.size());
  mem.Read(base, out);
  EXPECT_EQ(out, data);
  // Everything inside the prefaulted range is mapped already.
  mem.Write(base - 2 * SparseMemory::kMapChunk, data);
  mem.Write(base + 2 * SparseMemory::kMapChunk - 1, data);
  EXPECT_EQ(mem.Extents(), 3u);
}

TEST(SparseMemory, ScatteredLazyWritesMapOneExtentPerChunk) {
  SparseMemory mem;
  constexpr std::uint64_t kChunks = 24;
  Rng rng(77);
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    // Three writes anywhere in every other chunk, visited in a scattered
    // order, half of them near 0 and half near 2^40.
    const std::uint64_t chunk = (c * 7 % kChunks) * 2 + (c % 2) * (1ull << 20);
    for (int w = 0; w < 3; ++w) {
      const std::uint64_t off =
          rng.Below(SparseMemory::kMapChunk - 8) & ~std::uint64_t{7};
      mem.WriteValue<std::uint64_t>(chunk * SparseMemory::kMapChunk + off, c);
    }
  }
  EXPECT_LE(mem.Extents(), kChunks);
  EXPECT_EQ(mem.ResidentPages(),
            kChunks * SparseMemory::kMapChunk / SparseMemory::kPageSize);
}

// Seeded random scripts of Write, Read, PreFault and moves against a dense
// byte-array reference, over zones that straddle chunk boundaries, extents
// and gaps, and 2^40.
TEST(SparseMemory, RandomScriptsMatchByteReference) {
  constexpr std::uint64_t kChunk = SparseMemory::kMapChunk;
  constexpr std::uint64_t kZone = 6 * kChunk;
  const std::uint64_t zones[] = {0, 37 * kChunk + 1234,
                                 (1ull << 40) - 3 * kChunk - 999,
                                 (1ull << 40) + 11 * kChunk};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    COWBIRD_SCOPED_SEED(seed);
    Rng rng(seed);
    SparseMemory mem;
    std::vector<std::vector<std::uint8_t>> ref(
        std::size(zones), std::vector<std::uint8_t>(kZone, 0));
    const auto pick_len = [&] {
      const std::uint64_t kind = rng.Below(20);
      if (kind < 14) return rng.Between(1, 600);
      if (kind < 19) return rng.Between(1, 20000);
      return rng.Between(kChunk / 2, 2 * kChunk);
    };
    std::vector<std::uint8_t> buf;
    for (int op = 0; op < 300; ++op) {
      const std::size_t z = rng.Below(std::size(zones));
      const std::uint64_t len = pick_len();
      std::uint64_t off = rng.Below(kZone - len + 1);
      if (rng.Below(3) == 0) {
        // Start within 128 bytes of a page or chunk boundary, where extents
        // begin and end.
        const std::uint64_t grain =
            rng.Below(2) == 0 ? kChunk : SparseMemory::kPageSize;
        const std::uint64_t start =
            (zones[z] + off) / grain * grain + rng.Below(256) - 128;
        if (start >= zones[z] && start - zones[z] <= kZone - len) {
          off = start - zones[z];
        }
      }
      const std::uint64_t addr = zones[z] + off;
      const std::uint64_t kind = rng.Below(100);
      if (kind < 45) {
        buf.resize(len);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Next());
        mem.Write(addr, buf);
        std::memcpy(ref[z].data() + off, buf.data(), len);
      } else if (kind < 80) {
        buf.assign(len, 0xEE);
        mem.Read(addr, buf);
        ASSERT_EQ(0, std::memcmp(buf.data(), ref[z].data() + off, len))
            << "read of " << len << " bytes at " << addr << ", op " << op;
      } else if (kind < 95) {
        const std::size_t extents = mem.Extents();
        mem.PreFault(addr, static_cast<Bytes>(len));
        ASSERT_GE(mem.Extents(), extents);
        // The range is mapped now: writing into it maps nothing more.
        const std::size_t mapped = mem.Extents();
        const std::uint8_t edge[2] = {ref[z][off], ref[z][off + len - 1]};
        mem.Write(addr, std::span<const std::uint8_t>(edge, 1));
        mem.Write(addr + len - 1, std::span<const std::uint8_t>(edge + 1, 1));
        ASSERT_EQ(mem.Extents(), mapped);
      } else if (kind < 98) {
        SparseMemory moved(std::move(mem));
        EXPECT_EQ(mem.Extents(), 0u);
        EXPECT_EQ(mem.ResidentPages(), 0u);
        mem = std::move(moved);
        EXPECT_EQ(moved.Extents(), 0u);
      } else {
        // Move-assign over a non-empty target, whose mappings are dropped.
        SparseMemory other;
        other.Write(zones[z], std::vector<std::uint8_t>(64, 0x11));
        other = std::move(mem);
        mem = std::move(other);
      }
    }
    for (std::size_t z = 0; z < std::size(zones); ++z) {
      buf.assign(kZone, 0xEE);
      mem.Read(zones[z], buf);
      ASSERT_EQ(buf, ref[z]) << "zone " << z;
    }
  }
}

}  // namespace
}  // namespace cowbird
