#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace tcsm {

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  TCSM_CHECK(!bounds_.empty());
  TCSM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Observe(uint64_t v) {
  // First bound >= v; past-the-end selects the overflow bucket.
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<uint64_t> ExponentialBounds(uint64_t start, double factor,
                                        size_t count) {
  TCSM_CHECK(start > 0 && factor > 1.0 && count > 0);
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  double v = static_cast<double>(start);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t b = static_cast<uint64_t>(std::llround(v));
    // Guard against rounding producing a duplicate boundary.
    if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
    v *= factor;
  }
  return bounds;
}

const std::vector<uint64_t>& LatencyBoundsNs() {
  static const std::vector<uint64_t> bounds =
      ExponentialBounds(250, 2.0, 26);  // 250ns .. ~8.4s
  return bounds;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      if (b >= bounds.size()) {
        // Overflow bucket: no upper bound, report its lower edge.
        return static_cast<double>(bounds.back());
      }
      const double lo = b == 0 ? 0.0 : static_cast<double>(bounds[b - 1]);
      const double hi = static_cast<double>(bounds[b]);
      const double frac =
          (target - static_cast<double>(cumulative)) / in_bucket;
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(bounds.back());
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& prev) const {
  TCSM_DCHECK(bounds == prev.bounds);
  HistogramSnapshot d;
  d.bounds = bounds;
  d.buckets.resize(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) {
    d.buckets[b] = buckets[b] - prev.buckets[b];
  }
  d.count = count - prev.count;
  d.sum = sum - prev.sum;
  return d;
}

namespace {

/// The value named `name` in a list of (name, value) pairs, or null.
template <typename List>
auto FindNamed(List& list, std::string_view name)
    -> decltype(&list.front().second) {
  for (auto& [n, v] : list) {
    if (n == name) return &v;
  }
  return nullptr;
}

}  // namespace

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const uint64_t* v = FindNamed(counters, name);
  return v != nullptr ? *v : 0;
}

int64_t MetricsSnapshot::GaugeValue(std::string_view name) const {
  const int64_t* v = FindNamed(gauges, name);
  return v != nullptr ? *v : 0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  return FindNamed(histograms, name);
}

template <typename T, typename... Args>
T* MetricsRegistry::Register(std::vector<Named<T>>* list, std::string name,
                             Args&&... args) {
  if (const std::unique_ptr<T>* found = FindNamed(*list, name)) {
    return found->get();
  }
  TCSM_CHECK(!frozen_);
  list->emplace_back(std::move(name),
                     std::make_unique<T>(std::forward<Args>(args)...));
  return list->back().second.get();
}

Counter* MetricsRegistry::AddCounter(std::string name) {
  return Register(&counters_, std::move(name));
}

Gauge* MetricsRegistry::AddGauge(std::string name) {
  return Register(&gauges_, std::move(name));
}

Histogram* MetricsRegistry::AddHistogram(std::string name,
                                         std::vector<uint64_t> bounds) {
  Histogram* h = Register(&histograms_, std::move(name), bounds);
  TCSM_CHECK(h->bounds() == bounds);
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Total());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    for (size_t b = 0; b < h->num_buckets(); ++b) {
      hs.buckets.push_back(h->BucketCount(b));
    }
    hs.count = h->TotalCount();
    hs.sum = h->TotalSum();
    snap.histograms.emplace_back(name, std::move(hs));
  }
  return snap;
}

}  // namespace tcsm
