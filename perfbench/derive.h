// Derivations the benchmark applies to raw measurements: percentiles under
// the reporting rule, ratios over a stated base, the op-segment tiling check,
// and snapshot sums over label sets. Kept free of any workload code so the
// self-test (perfbench --self-test) can pin each rule on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace perfbench {

// A percentile is reported only when at least this many samples lie beyond
// it, so a tail figure never rests on a handful of outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

// Nearest-rank position (1-based) of quantile q in n sorted samples.
inline std::size_t NearestRank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

inline bool PercentileSupported(std::size_t n, double q) {
  return n > 0 && n - NearestRank(n, q) >= kMinSamplesBeyond;
}

// Nearest-rank percentile, or nullopt when the rule above does not hold.
// Sorts `samples` in place.
template <typename T>
std::optional<T> Percentile(std::vector<T>& samples, double q) {
  if (!PercentileSupported(samples.size(), q)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), q) - 1];
}

// The median of host-clock repeats; the rule above is for latency tails,
// not for the handful of repeats a run makes.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// A host-clock figure of the repeats at the nominal host: the median over
// repeats of each repeat's figure with the host slowdown measured around it
// taken out. A rate is multiplied by the slowdown, a time divided by it.
// Repeats without a slowdown (the warm-up repeat) are left out.
inline double NominalRate(const std::vector<double>& rate,
                          const std::vector<double>& slowdown) {
  std::vector<double> scaled;
  for (std::size_t i = 0; i < rate.size() && i < slowdown.size(); ++i) {
    if (slowdown[i] > 0) scaled.push_back(rate[i] * slowdown[i]);
  }
  return Median(scaled);
}

inline double NominalTime(const std::vector<double>& time,
                          const std::vector<double>& slowdown) {
  std::vector<double> scaled;
  for (std::size_t i = 0; i < time.size() && i < slowdown.size(); ++i) {
    if (slowdown[i] > 0) scaled.push_back(time[i] / slowdown[i]);
  }
  return Median(scaled);
}

// num / base, with an empty base reading as 0 (the layer did no such work).
inline double Ratio(double num, double base) {
  return base > 0 ? num / base : 0;
}

// Complete ops that do not split into four non-negative segments summing to
// their issue->retired latency to the nanosecond. The segments telescope, so
// the sum can only break through arithmetic; a phase stamped out of order
// (a negative segment) is the failure this catches in practice.
inline std::uint64_t SegmentTilingFailures(
    const std::vector<cowbird::telemetry::OpBreakdown>& ops) {
  std::uint64_t bad = 0;
  for (const auto& op : ops) {
    if (!op.Complete()) continue;
    bool ok = op.SumOfSegments() == op.Total();
    for (int seg = 0; seg < cowbird::telemetry::kNumOpSegments; ++seg) {
      ok = ok && op.Segment(seg) >= 0;
    }
    if (!ok) ++bad;
  }
  return bad;
}

// True when a snapshot key names series `name`, whatever its labels.
inline bool IsSeries(std::string_view key, std::string_view name) {
  return key.starts_with(name) &&
         (key.size() == name.size() || key[name.size()] == '{');
}

// Sum of every series of `name` over its labels, gauges and counters alike.
inline double SumSeries(const cowbird::telemetry::Snapshot& s,
                        std::string_view name) {
  double total = 0;
  for (const auto& g : s.gauges) {
    if (IsSeries(g.key, name)) total += static_cast<double>(g.value);
  }
  for (const auto& c : s.counters) {
    if (IsSeries(c.key, name)) total += static_cast<double>(c.value);
  }
  return total;
}

}  // namespace perfbench
