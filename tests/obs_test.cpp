// Unit tests for the observability subsystem (src/obs/, DESIGN.md §11):
// counter/gauge/histogram semantics, exact concurrent recording under a
// real ThreadPool, histogram bucket boundary pinning, the
// allocation-free recording contract after MetricsRegistry::Freeze(),
// trace span collection from pool threads, and the StatsReporter's text
// and JSON line shapes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/stage_timer.h"
#include "obs/stats_reporter.h"
#include "obs/trace.h"

// Global allocation counter for the no-op/frozen-registry contract: the
// hot-path recording calls must not allocate. Replacing the global
// operator new/delete pair is the only observation point that catches
// every allocation path (vector growth, node allocation, ...).
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tcsm {
namespace {

TEST(CounterTest, AddAccumulates) {
  Counter c;
  EXPECT_EQ(c.Total(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Total(), 42u);
}

TEST(CounterTest, ExactUnderThreadPool) {
  // Recording is driver-only in the streaming path, but a counter stays
  // one atomic: concurrent pool workers must still lose no update.
  Counter c;
  ThreadPool pool(8);
  constexpr size_t kIters = 10000;
  pool.PipelineFor(1, kIters, [&](size_t, size_t i) { c.Add(i % 3 + 1); },
                   [](size_t) {});
  uint64_t expected = 0;
  for (size_t i = 0; i < kIters; ++i) expected += i % 3 + 1;
  EXPECT_EQ(c.Total(), expected);
}

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  // bounds {10, 20, 40}: bucket b holds bounds[b-1] < v <= bounds[b],
  // the implicit 4th bucket catches v > 40. Boundary values pin the
  // "inclusive upper bound" contract.
  Histogram h({10, 20, 40});
  ASSERT_EQ(h.num_buckets(), 4u);
  h.Observe(0);    // -> bucket 0
  h.Observe(10);   // -> bucket 0 (boundary is inclusive)
  h.Observe(11);   // -> bucket 1
  h.Observe(20);   // -> bucket 1
  h.Observe(21);   // -> bucket 2
  h.Observe(40);   // -> bucket 2
  h.Observe(41);   // -> overflow
  h.Observe(999);  // -> overflow
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 2u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(h.TotalCount(), 8u);
  EXPECT_EQ(h.TotalSum(), 0u + 10 + 11 + 20 + 21 + 40 + 41 + 999);
}

TEST(HistogramTest, ExactUnderThreadPool) {
  Histogram h(ExponentialBounds(1, 2.0, 12));
  ThreadPool pool(8);
  constexpr size_t kIters = 20000;
  pool.PipelineFor(1, kIters, [&](size_t, size_t i) { h.Observe(i % 100); },
                   [](size_t) {});
  uint64_t expected_sum = 0;
  for (size_t i = 0; i < kIters; ++i) expected_sum += i % 100;
  EXPECT_EQ(h.TotalCount(), kIters);
  EXPECT_EQ(h.TotalSum(), expected_sum);
}

TEST(HistogramTest, ExponentialBoundsAscendingAndDeduped) {
  const std::vector<uint64_t> bounds = ExponentialBounds(250, 2.0, 26);
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 250u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at index " << i;
  }
  // factor ~1: integer rounding would duplicate boundaries; they must
  // be collapsed, never repeated.
  const std::vector<uint64_t> slow = ExponentialBounds(1, 1.1, 10);
  for (size_t i = 1; i < slow.size(); ++i) {
    EXPECT_LT(slow[i - 1], slow[i]) << "at index " << i;
  }
}

TEST(HistogramSnapshotTest, QuantileInterpolatesAndDeltaSubtracts) {
  MetricsRegistry reg;
  Histogram* h = reg.AddHistogram("h", {10, 20, 40});
  for (int i = 0; i < 10; ++i) h->Observe(5);   // bucket 0
  for (int i = 0; i < 10; ++i) h->Observe(15);  // bucket 1
  const MetricsSnapshot snap1 = reg.Snapshot();
  const HistogramSnapshot* s1 = snap1.FindHistogram("h");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->count, 20u);
  // Median sits exactly on the bucket-0/bucket-1 boundary.
  EXPECT_DOUBLE_EQ(s1->Quantile(0.5), 10.0);
  // p100 = upper bound of the highest occupied bucket.
  EXPECT_DOUBLE_EQ(s1->Quantile(1.0), 20.0);

  for (int i = 0; i < 5; ++i) h->Observe(30);  // bucket 2
  const MetricsSnapshot snap2 = reg.Snapshot();
  const HistogramSnapshot delta =
      snap2.FindHistogram("h")->DeltaSince(*s1);
  EXPECT_EQ(delta.count, 5u);
  EXPECT_EQ(delta.buckets[0], 0u);
  EXPECT_EQ(delta.buckets[1], 0u);
  EXPECT_EQ(delta.buckets[2], 5u);
  EXPECT_EQ(delta.sum, 150u);
}

TEST(MetricsRegistryTest, GetOrCreateDedupesByName) {
  MetricsRegistry reg;
  Counter* c1 = reg.AddCounter("x");
  Counter* c2 = reg.AddCounter("x");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.AddGauge("y");
  EXPECT_EQ(g1, reg.AddGauge("y"));
  Histogram* h1 = reg.AddHistogram("z", {1, 2});
  EXPECT_EQ(h1, reg.AddHistogram("z", {1, 2}));
}

TEST(MetricsRegistryTest, SnapshotReadsEveryMetric) {
  MetricsRegistry reg;
  reg.AddCounter("c")->Add(3);
  reg.AddGauge("g")->Set(-5);
  reg.AddHistogram("h", {100})->Observe(50);
  reg.Freeze();
  EXPECT_TRUE(reg.frozen());
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("c"), 3u);
  EXPECT_EQ(snap.GaugeValue("g"), -5);
  const HistogramSnapshot* h = snap.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(snap.CounterValue("missing"), 0u);
  EXPECT_EQ(snap.FindHistogram("missing"), nullptr);
}

TEST(MetricsRegistryTest, RecordingIsAllocationFreeAfterFreeze) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("c");
  Gauge* g = reg.AddGauge("g");
  Histogram* h = reg.AddHistogram("h", ExponentialBounds(250, 2.0, 26));
  reg.Freeze();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    c->Add(1);
    g->Set(i);
    g->Add(1);
    h->Observe(static_cast<uint64_t>(i) * 977);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "hot-path recording allocated";
  EXPECT_EQ(c->Total(), 1000u);
  EXPECT_EQ(h->TotalCount(), 1000u);
}

TEST(StageTimerTest, NullHandlesAreFreeNoOps) {
  // The metrics-off contract: an instrumented site with null handles
  // must not allocate (and, by construction, never reads the clock).
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const ScopedStage span(nullptr, nullptr, "x", "y", "k", 1);
    StepObserver steps(nullptr, nullptr, "cat");
    steps.Step("s", "k", 2);
    steps.Restart();
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled stage timers allocated";
}

TEST(StageTimerTest, ScopedStageRecordsIntoHistogramAndTrace) {
  Histogram h(LatencyBoundsNs());
  TraceWriter trace;
  {
    const ScopedStage span(&h, &trace, "arrival_batch", "stream", "events",
                           4);
  }
  EXPECT_EQ(h.TotalCount(), 1u);
  EXPECT_EQ(trace.NumSpans(), 1u);
}

TEST(StageTimerTest, StepObserverClosesOneSpanPerStep) {
  Histogram h(LatencyBoundsNs());
  TraceWriter trace;
  StepObserver steps(&h, &trace, "pipeline");
  steps.Step("insert_fanout", "edge", 0);
  steps.Restart();
  steps.Step("insert_fanout", "edge", 1);
  EXPECT_EQ(h.TotalCount(), 2u);
  EXPECT_EQ(trace.NumSpans(), 2u);
}

TEST(TraceWriterTest, SpansFromPoolThreadsGetDistinctNamedTracks) {
  TraceWriter trace;
  ThreadPool pool(4);
  pool.PipelineFor(
      1, 64,
      [&](size_t, size_t i) {
        const uint64_t start = trace.NowNs();
        trace.Emit("engine_call", "test", start, 100, "lane", i % 4);
      },
      [](size_t) {});
  EXPECT_EQ(trace.NumSpans(), 64u);
  std::ostringstream out;
  trace.WriteJson(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Every span thread carries a thread_name metadata record; with a
  // 4-wide pool at least two distinct tracks must have participated.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"lane\":"), std::string::npos);
}

TEST(TraceWriterTest, ToNsClampsBelowEpoch) {
  TraceWriter trace;
  EXPECT_EQ(trace.ToNs(std::chrono::steady_clock::time_point::min()), 0u);
}

TEST(ObservabilityTest, RegistersFullTaxonomyAndFreezes) {
  Observability obs;
  const StageMetrics& stages = obs.stages();
  EXPECT_NE(stages.arrivals, nullptr);
  EXPECT_NE(stages.expirations, nullptr);
  EXPECT_NE(stages.arrival_batches, nullptr);
  EXPECT_NE(stages.expiry_batches, nullptr);
  EXPECT_NE(stages.summary_publishes, nullptr);
  EXPECT_NE(stages.ingest_records, nullptr);
  EXPECT_NE(stages.ingest_bytes, nullptr);
  EXPECT_NE(stages.live_edges, nullptr);
  EXPECT_NE(stages.peak_bytes, nullptr);
  EXPECT_NE(stages.peak_event_index, nullptr);
  EXPECT_NE(stages.parse_ns, nullptr);
  EXPECT_NE(stages.arrival_batch_ns, nullptr);
  EXPECT_NE(stages.expiry_batch_ns, nullptr);
  EXPECT_NE(stages.pipeline_step_ns, nullptr);
  EXPECT_NE(stages.sink_drain_ns, nullptr);
  EXPECT_TRUE(obs.registry().frozen());
  EXPECT_EQ(obs.trace(), nullptr) << "tracing must be opt-in";
  obs.EnableTrace();
  EXPECT_NE(obs.trace(), nullptr);
}

TEST(ObservabilityTest, PublishEngineCountersSetsGauges) {
  Observability obs;
  EngineCounters agg;
  agg.occurred = 11;
  agg.expired = 7;
  agg.search_nodes = 100;
  agg.adj_entries_scanned = 50;
  agg.adj_entries_matched = 25;
  agg.update_ns = 3000;
  agg.search_ns = 4000;
  obs.PublishEngineCounters(agg);
  const MetricsSnapshot snap = obs.Snapshot();
  EXPECT_EQ(snap.GaugeValue("engine.occurred"), 11);
  EXPECT_EQ(snap.GaugeValue("engine.expired"), 7);
  EXPECT_EQ(snap.GaugeValue("engine.search_nodes"), 100);
  EXPECT_EQ(snap.GaugeValue("engine.adj_scanned"), 50);
  EXPECT_EQ(snap.GaugeValue("engine.adj_matched"), 25);
  EXPECT_EQ(snap.GaugeValue("engine.update_ns"), 3000);
  EXPECT_EQ(snap.GaugeValue("engine.search_ns"), 4000);
}

TEST(ObservabilityTest, SummarizeStagesSkipsEmptyAndStripsAffixes) {
  Observability obs;
  obs.stages().arrival_batch_ns->Observe(1000);
  obs.stages().arrival_batch_ns->Observe(3000);
  const std::vector<StageSummaryRow> rows = SummarizeStages(obs.Snapshot());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].stage, "arrival_batch");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_GT(rows[0].p99_us, 0.0);
}

TEST(StatsReporterTest, DisabledWithoutSink) {
  Observability obs;
  StatsReporter none(nullptr, 100, false, nullptr);
  EXPECT_FALSE(none.enabled());
  EXPECT_FALSE(none.Due(1000));
  std::ostringstream out;
  StatsReporter zero(&obs, 0, false, &out);
  EXPECT_FALSE(zero.enabled());
}

TEST(StatsReporterTest, DueFiresOncePerBoundaryCrossing) {
  Observability obs;
  std::ostringstream out;
  StatsReporter rep(&obs, 100, false, &out);
  ASSERT_TRUE(rep.enabled());
  EXPECT_FALSE(rep.Due(50));
  EXPECT_TRUE(rep.Due(100));
  rep.Tick(100, 10, EngineCounters{});
  EXPECT_FALSE(rep.Due(150)) << "same boundary must not re-fire";
  EXPECT_TRUE(rep.Due(350)) << "a batch jumping several boundaries fires";
}

TEST(StatsReporterTest, TextLineShape) {
  Observability obs;
  obs.stages().arrivals->Add(100);
  obs.stages().arrival_batch_ns->Observe(2000);
  std::ostringstream out;
  StatsReporter rep(&obs, 100, /*json=*/false, &out);
  EngineCounters agg;
  agg.occurred = 5;
  agg.adj_entries_scanned = 40;
  agg.adj_entries_matched = 10;
  agg.update_ns = 2500000;
  agg.search_ns = 500000;
  rep.Tick(100, 42, agg);
  const std::string line = out.str();
  EXPECT_EQ(line.rfind("[stats] events=100 ", 0), 0u) << line;
  EXPECT_NE(line.find(" ev_per_s="), std::string::npos) << line;
  EXPECT_NE(line.find(" live=42 "), std::string::npos) << line;
  EXPECT_NE(line.find(" occurred=5 "), std::string::npos) << line;
  EXPECT_NE(line.find(" scan_sel=0.250 update_ms=2.500 search_ms=0.500 "),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(" arrival_batch_p50_us="), std::string::npos) << line;
  EXPECT_NE(line.find("_p99_us="), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n');

  // Engine time is reported per tick interval, like the stage quantiles.
  out.str("");
  agg.update_ns += 1000000;
  rep.Tick(200, 42, agg);
  EXPECT_NE(out.str().find(" update_ms=1.000 search_ms=0.000"),
            std::string::npos)
      << out.str();
}

TEST(StatsReporterTest, JsonLineShape) {
  Observability obs;
  obs.stages().expiry_batch_ns->Observe(5000);
  std::ostringstream out;
  StatsReporter rep(&obs, 10, /*json=*/true, &out);
  EngineCounters agg;
  agg.occurred = 3;
  agg.expired = 1;
  rep.Tick(20, 7, agg);
  const std::string line = out.str();
  EXPECT_EQ(line.rfind("{\"type\":\"stats\",\"events\":20,", 0), 0u) << line;
  EXPECT_NE(line.find("\"events_per_sec\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"live_edges\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"occurred\":3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"expired\":1"), std::string::npos) << line;
  EXPECT_NE(line.find("\"update_ms\":0.000,\"search_ms\":0.000,"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"stages\":{\"expiry_batch\":{\"count\":1,"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.back(), '\n');
  // Engine counters were republished into the registry's gauges.
  EXPECT_EQ(obs.Snapshot().GaugeValue("engine.occurred"), 3);
}

}  // namespace
}  // namespace tcsm
