#include "telemetry/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/json.h"

namespace cowbird::telemetry {

namespace {

bool LegalAtom(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c == '{' || c == '}' || c == ',' || c == '=' || c == '"') return false;
  }
  return true;
}

// Quantile over a sparse (bucket index, count) list; replicates
// LogHistogram::QuantileUpperBound exactly — the first crossing always lands
// on a non-empty bucket, so skipping empty ones changes nothing.
std::uint64_t SparseQuantileUpperBound(
    const std::vector<std::pair<int, std::uint64_t>>& buckets,
    std::uint64_t count, double q) {
  if (count == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (const auto& [bucket, bucket_count] : buckets) {
    seen += bucket_count;
    if (seen > target) {
      if (bucket == 0) return 0;
      if (bucket >= 64) return ~0ull;
      return (1ull << bucket) - 1;
    }
  }
  return ~0ull;
}

}  // namespace

// Unbound handles hold nullptr, never a shared dummy cell: handles of runs
// swept side by side would otherwise race on that one word.
Counter::Counter() : cell_(nullptr) {}
Gauge::Gauge() : cell_(nullptr) {}
Histogram::Histogram() : cell_(nullptr) {}


std::string CanonicalMetricKey(std::string_view name, const Labels& labels) {
  COWBIRD_CHECK(LegalAtom(name));
  std::string key(name);
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    COWBIRD_CHECK(LegalAtom(sorted[i].first));
    COWBIRD_CHECK(LegalAtom(sorted[i].second));
    if (i > 0) {
      COWBIRD_CHECK(sorted[i].first != sorted[i - 1].first);  // no dup keys
      key += ',';
    }
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

Counter MetricRegistry::GetCounter(std::string_view name,
                                   const Labels& labels) {
  return Counter(&counters_[CanonicalMetricKey(name, labels)]);
}

Gauge MetricRegistry::GetGauge(std::string_view name, const Labels& labels) {
  std::string key = CanonicalMetricKey(name, labels);
  COWBIRD_CHECK(!callback_gauges_.contains(key));
  return Gauge(&gauges_[std::move(key)]);
}

Histogram MetricRegistry::GetHistogram(std::string_view name,
                                       const Labels& labels) {
  return Histogram(&histograms_[CanonicalMetricKey(name, labels)]);
}

void MetricRegistry::RegisterCallbackGauge(std::string_view name,
                                           const Labels& labels,
                                           std::function<std::int64_t()> fn) {
  COWBIRD_CHECK(fn != nullptr);
  std::string key = CanonicalMetricKey(name, labels);
  COWBIRD_CHECK(!gauges_.contains(key));
  callback_gauges_[std::move(key)] = std::move(fn);
}

void MetricRegistry::UnregisterCallbackGauge(std::string_view name,
                                             const Labels& labels) {
  callback_gauges_.erase(CanonicalMetricKey(name, labels));
}

Snapshot MetricRegistry::TakeSnapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, value] : counters_) {
    snap.counters.push_back({key, value});
  }
  // Stored and callback gauges share one sorted namespace; merge the two
  // already-sorted maps so snapshot order stays canonical.
  snap.gauges.reserve(gauges_.size() + callback_gauges_.size());
  auto stored = gauges_.begin();
  auto lazy = callback_gauges_.begin();
  while (stored != gauges_.end() || lazy != callback_gauges_.end()) {
    const bool take_stored =
        lazy == callback_gauges_.end() ||
        (stored != gauges_.end() && stored->first < lazy->first);
    if (take_stored) {
      snap.gauges.push_back({stored->first, stored->second});
      ++stored;
    } else {
      snap.gauges.push_back({lazy->first, lazy->second()});
      ++lazy;
    }
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, hist] : histograms_) {
    Snapshot::HistogramEntry entry;
    entry.key = key;
    entry.count = hist.count();
    entry.p50 = hist.QuantileUpperBound(0.5);
    entry.p99 = hist.QuantileUpperBound(0.99);
    for (int i = 0; i < LogHistogram::kBuckets; ++i) {
      if (hist.bucket(i) != 0) entry.buckets.emplace_back(i, hist.bucket(i));
    }
    snap.histograms.push_back(std::move(entry));
  }
  return snap;
}

void Snapshot::MergeFrom(const Snapshot& other) {
  // All three sections are sorted by canonical key (TakeSnapshot emits them
  // that way and this merge preserves it), so a linear two-pointer merge
  // keeps the aggregate canonical.
  {
    std::vector<CounterEntry> merged;
    merged.reserve(counters.size() + other.counters.size());
    std::size_t a = 0, b = 0;
    while (a < counters.size() || b < other.counters.size()) {
      if (b == other.counters.size() ||
          (a < counters.size() && counters[a].key < other.counters[b].key)) {
        merged.push_back(std::move(counters[a++]));
      } else if (a == counters.size() ||
                 other.counters[b].key < counters[a].key) {
        merged.push_back(other.counters[b++]);
      } else {
        merged.push_back(
            {std::move(counters[a].key),
             counters[a].value + other.counters[b].value});
        ++a;
        ++b;
      }
    }
    counters = std::move(merged);
  }
  {
    std::vector<GaugeEntry> merged;
    merged.reserve(gauges.size() + other.gauges.size());
    std::size_t a = 0, b = 0;
    while (a < gauges.size() || b < other.gauges.size()) {
      if (b == other.gauges.size() ||
          (a < gauges.size() && gauges[a].key < other.gauges[b].key)) {
        merged.push_back(std::move(gauges[a++]));
      } else if (a == gauges.size() || other.gauges[b].key < gauges[a].key) {
        merged.push_back(other.gauges[b++]);
      } else {
        merged.push_back({std::move(gauges[a].key),
                          gauges[a].value + other.gauges[b].value});
        ++a;
        ++b;
      }
    }
    gauges = std::move(merged);
  }
  {
    std::vector<HistogramEntry> merged;
    merged.reserve(histograms.size() + other.histograms.size());
    std::size_t a = 0, b = 0;
    while (a < histograms.size() || b < other.histograms.size()) {
      if (b == other.histograms.size() ||
          (a < histograms.size() &&
           histograms[a].key < other.histograms[b].key)) {
        merged.push_back(std::move(histograms[a++]));
      } else if (a == histograms.size() ||
                 other.histograms[b].key < histograms[a].key) {
        merged.push_back(other.histograms[b++]);
      } else {
        HistogramEntry entry;
        entry.key = std::move(histograms[a].key);
        entry.count = histograms[a].count + other.histograms[b].count;
        // Both bucket lists are sorted by index; merge, summing collisions.
        const auto& ba = histograms[a].buckets;
        const auto& bb = other.histograms[b].buckets;
        std::size_t i = 0, j = 0;
        while (i < ba.size() || j < bb.size()) {
          if (j == bb.size() ||
              (i < ba.size() && ba[i].first < bb[j].first)) {
            entry.buckets.push_back(ba[i++]);
          } else if (i == ba.size() || bb[j].first < ba[i].first) {
            entry.buckets.push_back(bb[j++]);
          } else {
            entry.buckets.emplace_back(ba[i].first,
                                       ba[i].second + bb[j].second);
            ++i;
            ++j;
          }
        }
        entry.p50 = SparseQuantileUpperBound(entry.buckets, entry.count, 0.5);
        entry.p99 =
            SparseQuantileUpperBound(entry.buckets, entry.count, 0.99);
        merged.push_back(std::move(entry));
        ++a;
        ++b;
      }
    }
    histograms = std::move(merged);
  }
}

std::optional<std::uint64_t> Snapshot::CounterValue(
    std::string_view key) const {
  for (const auto& entry : counters) {
    if (entry.key == key) return entry.value;
  }
  return std::nullopt;
}

std::optional<std::int64_t> Snapshot::GaugeValue(std::string_view key) const {
  for (const auto& entry : gauges) {
    if (entry.key == key) return entry.value;
  }
  return std::nullopt;
}

const Snapshot::HistogramEntry* Snapshot::FindHistogram(
    std::string_view key) const {
  for (const auto& entry : histograms) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

std::string Snapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& entry : counters) {
    w.Key(entry.key);
    w.Uint(entry.value);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& entry : gauges) {
    w.Key(entry.key);
    w.Int(entry.value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& entry : histograms) {
    w.Key(entry.key);
    w.BeginObject();
    w.Key("count");
    w.Uint(entry.count);
    w.Key("p50");
    w.Uint(entry.p50);
    w.Key("p99");
    w.Uint(entry.p99);
    w.Key("buckets");
    w.BeginObject();
    for (const auto& [bucket, count] : entry.buckets) {
      w.Key(std::to_string(bucket));
      w.Uint(count);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace cowbird::telemetry
