// Metrics registry: named counters, gauges, and fixed-bucket latency
// histograms for the observability subsystem (DESIGN.md §11).
//
// Single-writer contract: every registry write happens on the driver
// thread — parse, batch, live/peak gauges, and the pipeline-step, drain
// and shard-publish sites, which run in ThreadPool::PipelineFor's
// caller-only settle. Engines never write here; their phase times live
// in EngineCounters (core/engine.h) and reach the registry as the
// engine.* gauges. So each value is ONE relaxed atomic: uncontended by
// construction, and still exact if a caller does record concurrently.
// Reads (Total / Snapshot) are monotone but not a consistent cut, which
// is all the stats surface needs. When observability is off the
// instrumented code holds null handles and skips the recording entirely
// (see StageMetrics), so the subsystem costs one pointer test per site.
//
// Registration is get-or-create by name and allocates; Freeze() ends the
// registration phase, after which recording is allocation-free (pinned
// by obs_test's allocation counter). Handles returned by Add* stay valid
// for the registry's lifetime.
#ifndef TCSM_OBS_METRICS_H_
#define TCSM_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tcsm {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Total() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time value (live edges, peak bytes). Written from the
/// driver thread; relaxed atomic so snapshot readers race benignly.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. `bounds` are ascending inclusive upper bounds;
/// bucket b counts observations v with bounds[b-1] < v <= bounds[b], and
/// one implicit overflow bucket catches v > bounds.back(). Bucket
/// boundaries are fixed at registration so snapshots taken at different
/// times are always subtractable (the stats reporter's per-tick deltas).
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Observe(uint64_t v);

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  size_t num_buckets() const { return bounds_.size() + 1; }
  uint64_t BucketCount(size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  uint64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  uint64_t TotalSum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<uint64_t> bounds_;
  // One cell per bucket, overflow last.
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Exponential bucket boundaries: count values start, start*factor, ...
std::vector<uint64_t> ExponentialBounds(uint64_t start, double factor,
                                        size_t count);
/// The default stage-latency boundaries: 250ns .. ~8s, factor 2. Shared
/// by every stage histogram so their snapshots line up column-for-column.
const std::vector<uint64_t>& LatencyBoundsNs();

struct HistogramSnapshot {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1, overflow last
  uint64_t count = 0;
  uint64_t sum = 0;

  /// Quantile estimate (q in [0,1]) with linear interpolation inside the
  /// containing bucket; the overflow bucket reports its lower bound.
  double Quantile(double q) const;
  /// this - prev, bucketwise; both snapshots must share bounds.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& prev) const;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Must not be called after Freeze(); a
  /// histogram re-registration must repeat the same boundaries.
  Counter* AddCounter(std::string name);
  Gauge* AddGauge(std::string name);
  Histogram* AddHistogram(std::string name, std::vector<uint64_t> bounds);

  /// Ends the registration phase: recording stays allocation-free from
  /// here on and further Add* calls are invariant violations.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Point-in-time view of every metric, names in registration
  /// order. Allocates; meant for the stats cadence, not the hot path.
  MetricsSnapshot Snapshot() const;

 private:
  template <typename T>
  using Named = std::pair<std::string, std::unique_ptr<T>>;

  /// Get-or-create in one of the lists below; a new metric is built
  /// from `args`.
  template <typename T, typename... Args>
  T* Register(std::vector<Named<T>>* list, std::string name, Args&&... args);

  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
  bool frozen_ = false;
};

/// Handle bundle for every instrumented stage of the streaming path.
/// Instrumented code receives this as a possibly-null pointer: null (or a
/// null member) means observability is off and the site must do nothing.
/// The bundle is populated — against one shared registry — by
/// Observability (obs/observability.h), which also documents the metric
/// name of each handle.
struct StageMetrics {
  // Event accounting (counters).
  Counter* arrivals = nullptr;
  Counter* expirations = nullptr;
  Counter* arrival_batches = nullptr;
  Counter* expiry_batches = nullptr;
  Counter* summary_publishes = nullptr;
  // Ingest accounting (counters): records returned by / bytes consumed
  // from the StreamReader, either framing. Reconciles against
  // StreamResult.events (ingest_records ≥ arrivals + derived expirations'
  // arrivals; text streams also count dropped self loops).
  Counter* ingest_records = nullptr;
  Counter* ingest_bytes = nullptr;
  // Stream position gauges.
  Gauge* live_edges = nullptr;
  Gauge* peak_bytes = nullptr;
  Gauge* peak_event_index = nullptr;
  // Stage latency histograms (nanoseconds).
  Histogram* parse_ns = nullptr;
  Histogram* arrival_batch_ns = nullptr;
  Histogram* expiry_batch_ns = nullptr;
  Histogram* pipeline_step_ns = nullptr;
  Histogram* sink_drain_ns = nullptr;
};

}  // namespace tcsm

#endif  // TCSM_OBS_METRICS_H_
