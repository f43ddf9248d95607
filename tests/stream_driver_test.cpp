// The stream driver's contract, checked through both of its sources:
// the in-memory dataset (RunStream) and a StreamReader (ReplayStream)
// over the same stream written by StreamWriter, in both framings.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "io/replay.h"
#include "io/stream_reader.h"
#include "io/stream_writer.h"
#include "querygen/query_generator.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

/// Records the exact event sequence an engine observes from the context.
class RecordingEngine : public ContinuousEngine {
 public:
  struct Event {
    bool arrival;
    EdgeId id;
  };

  std::string name() const override { return "recorder"; }
  void OnEdgeInserted(const TemporalEdge& ed) override {
    events.push_back(Event{true, ed.id});
  }
  void OnEdgeExpiring(const TemporalEdge& ed) override {
    events.push_back(Event{false, ed.id});
  }
  size_t StateMemoryBytes() const override { return 128; }

  std::vector<Event> events;
};

TemporalDataset ThreeEdges() {
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  for (Timestamp t : {1, 5, 11}) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(ds.edges.size());
    e.src = 0;
    e.dst = 1;
    e.ts = t;
    ds.edges.push_back(e);
  }
  return ds;
}

GraphSchema TwoVertexSchema() { return GraphSchema{false, {0, 0}}; }

enum class Source { kDataset, kTextReader, kBinaryReader };

std::string SourceName(const ::testing::TestParamInfo<Source>& info) {
  switch (info.param) {
    case Source::kDataset:
      return "Dataset";
    case Source::kTextReader:
      return "TextReader";
    default:
      return "BinaryReader";
  }
}

/// Drives `ds` into `ctx` through `source`: RunStream over the dataset,
/// or ReplayStream over a reader of the same arrivals written with
/// StreamWriter. The written header records no window, so
/// `config.window` governs every source alike.
StreamResult Drive(Source source, const TemporalDataset& ds,
                   const StreamConfig& config, SharedStreamContext* ctx) {
  if (source == Source::kDataset) return RunStream(ds, config, ctx);
  std::stringstream tel(std::ios::in | std::ios::out | std::ios::binary);
  StreamWriter writer(tel);
  TelWriteOptions options;
  options.binary = source == Source::kBinaryReader;
  EXPECT_TRUE(writer.BeginStream(ds.directed, ds.vertex_labels, options).ok());
  for (const TemporalEdge& e : ds.edges) {
    EXPECT_TRUE(writer.RecordArrival(e).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  StreamReader reader(tel, "test.tel");
  EXPECT_TRUE(reader.Init().ok());
  EXPECT_EQ(reader.binary(), source == Source::kBinaryReader);
  auto res = ReplayStream(&reader, config, ctx);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.ok() ? res.value() : StreamResult{};
}

class StreamDriverSources : public ::testing::TestWithParam<Source> {
 protected:
  StreamResult Drive(const TemporalDataset& ds, const StreamConfig& config,
                     SharedStreamContext* ctx) {
    return tcsm::Drive(GetParam(), ds, config, ctx);
  }
};

INSTANTIATE_TEST_SUITE_P(Sources, StreamDriverSources,
                         ::testing::Values(Source::kDataset,
                                           Source::kTextReader,
                                           Source::kBinaryReader),
                         SourceName);

TEST_P(StreamDriverSources, ExpirationsBeforeArrivalsOnTies) {
  // Window 10: edge@1 expires at 11 — exactly when edge@11 arrives; the
  // expiration must be delivered first (Example II.2 semantics).
  SharedStreamContext ctx(TwoVertexSchema());
  RecordingEngine engine;
  ctx.Attach(&engine);
  StreamConfig config;
  config.window = 10;
  const StreamResult res = Drive(ThreeEdges(), config, &ctx);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(engine.events.size(), 6u);
  EXPECT_TRUE(engine.events[0].arrival);   // +e0 @1
  EXPECT_TRUE(engine.events[1].arrival);   // +e1 @5
  EXPECT_FALSE(engine.events[2].arrival);  // -e0 @11 (before the arrival)
  EXPECT_EQ(engine.events[2].id, 0u);
  EXPECT_TRUE(engine.events[3].arrival);   // +e2 @11
  EXPECT_FALSE(engine.events[4].arrival);  // -e1 @15
  EXPECT_FALSE(engine.events[5].arrival);  // -e2 @21
}

TEST_P(StreamDriverSources, AllEdgesEventuallyExpire) {
  SharedStreamContext ctx(TwoVertexSchema());
  RecordingEngine engine;
  ctx.Attach(&engine);
  StreamConfig config;
  config.window = 1000;
  const StreamResult res = Drive(ThreeEdges(), config, &ctx);
  EXPECT_EQ(res.events, 6u);
  size_t arrivals = 0;
  for (const auto& e : engine.events) arrivals += e.arrival;
  EXPECT_EQ(arrivals, 3u);
}

TEST_P(StreamDriverSources, MaxArrivalsTruncates) {
  SharedStreamContext ctx(TwoVertexSchema());
  RecordingEngine engine;
  ctx.Attach(&engine);
  StreamConfig config;
  config.window = 1000;
  config.max_arrivals = 2;
  const StreamResult res = Drive(ThreeEdges(), config, &ctx);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.events, 4u);  // 2 arrivals + their 2 expirations
  size_t arrivals = 0;
  for (const auto& e : engine.events) arrivals += e.arrival;
  EXPECT_EQ(arrivals, 2u);
}

TEST_P(StreamDriverSources, CountsMatchesFromEngineCounters) {
  const QueryGraph q = testlib::RunningExampleQuery();
  SingleQueryContext<TcmEngine> run(q, testlib::RunningExampleSchema());
  StreamConfig config;
  config.window = 10;
  // No sink attached: counters must still track matches.
  const StreamResult res =
      Drive(testlib::RunningExampleDataset(), config, &run);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.occurred, 6u);
  EXPECT_EQ(res.expired, 6u);
  EXPECT_EQ(run.engine().counters().occurred, 6u);
  // The run's scan-selectivity totals surface on the result; nothing can
  // match more entries than were scanned.
  EXPECT_GE(res.adj_entries_scanned, res.adj_entries_matched);
  EXPECT_GT(res.adj_entries_scanned, 0u);
}

TEST_P(StreamDriverSources, PeakMemorySampled) {
  const QueryGraph q = testlib::RunningExampleQuery();
  SingleQueryContext<TcmEngine> run(q, testlib::RunningExampleSchema());
  StreamConfig config;
  config.window = 10;
  const StreamResult res =
      Drive(testlib::RunningExampleDataset(), config, &run);
  EXPECT_GT(res.peak_memory_bytes, 0u);
}

TEST(StreamDriver, RejectsTimestampsThatCouldOverflowExpiry) {
  // Programmatically built datasets bypass the .tel parser's timestamp
  // cap, so the driver itself must refuse magnitudes where ts + window
  // would overflow signed 64-bit instead of computing UB.
  SharedStreamContext ctx(TwoVertexSchema());
  RecordingEngine engine;
  ctx.Attach(&engine);

  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  TemporalEdge e;
  e.id = 0;
  e.src = 0;
  e.dst = 1;
  e.ts = kMaxStreamTimestamp + 1;
  ds.edges.push_back(e);

  StreamConfig config;
  config.window = 10;
  const StreamResult res = RunStream(ds, config, &ctx);
  EXPECT_FALSE(res.completed);
  EXPECT_FALSE(res.error.ok());
  EXPECT_EQ(res.events, 0u);
  EXPECT_TRUE(engine.events.empty());

  // An oversized window is refused the same way, even with tame edges.
  StreamConfig huge_window;
  huge_window.window = kMaxStreamTimestamp + 1;
  const StreamResult res2 = RunStream(ThreeEdges(), huge_window, &ctx);
  EXPECT_FALSE(res2.completed);
  EXPECT_FALSE(res2.error.ok());
  EXPECT_EQ(res2.events, 0u);

  // Timestamps and windows at the cap itself are fine: the expiry sum
  // kMaxStreamTimestamp + kMaxStreamTimestamp stays below int64 max.
  SharedStreamContext ok_ctx(TwoVertexSchema());
  TemporalDataset ok_ds;
  ok_ds.vertex_labels = {0, 0};
  TemporalEdge near;
  near.id = 0;
  near.src = 0;
  near.dst = 1;
  near.ts = kMaxStreamTimestamp;
  ok_ds.edges.push_back(near);
  StreamConfig at_cap;
  at_cap.window = kMaxStreamTimestamp;
  const StreamResult res3 = RunStream(ok_ds, at_cap, &ok_ctx);
  EXPECT_TRUE(res3.completed);
  EXPECT_TRUE(res3.error.ok());
  EXPECT_EQ(res3.events, 2u);  // the arrival and its expiration
}

TEST(StreamDriver, RefusesAMissingWindowWithoutAborting) {
  // A dataset has no window of its own, so a non-positive window is a
  // Status on the result — completed=false, zero events delivered — not
  // a process abort.
  SharedStreamContext ctx(TwoVertexSchema());
  RecordingEngine engine;
  ctx.Attach(&engine);
  for (const Timestamp window : {Timestamp{0}, Timestamp{-5}}) {
    StreamConfig config;
    config.window = window;
    const StreamResult res = RunStream(ThreeEdges(), config, &ctx);
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.error.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(res.error.message().find("no expiry window"),
              std::string::npos)
        << res.error.message();
    EXPECT_EQ(res.events, 0u);
  }
  EXPECT_TRUE(engine.events.empty());
}

TEST(StreamDriver, SourcesAgreeOnCountsAndBatches) {
  // A bursty synthetic stream (same-timestamp runs, so batching matters)
  // under a generated query: every source delivers the same events and
  // the engine sees the same matches and scan work.
  SyntheticSpec spec;
  spec.num_vertices = 120;
  spec.num_edges = 3000;
  spec.num_vertex_labels = 2;
  spec.avg_parallel_edges = 2;
  spec.ts_coalesce = 4;
  spec.seed = 7;
  const TemporalDataset ds = GenerateSynthetic(spec);
  QueryGenOptions qopt;
  qopt.num_edges = 3;
  qopt.window = 150;
  Rng rng(11);
  QueryGraph q;
  ASSERT_TRUE(GenerateQuery(ds, qopt, &rng, &q));
  const GraphSchema schema{ds.directed, ds.vertex_labels};
  StreamConfig config;
  config.window = 150;

  std::vector<StreamResult> results;
  for (const Source source :
       {Source::kDataset, Source::kTextReader, Source::kBinaryReader}) {
    SingleQueryContext<TcmEngine> run(q, schema);
    results.push_back(Drive(source, ds, config, &run));
    ASSERT_TRUE(results.back().completed);
  }
  const StreamResult& ref = results[0];
  EXPECT_EQ(ref.events, 2 * ds.edges.size());
  EXPECT_GT(ref.occurred, 0u);
  for (const StreamResult& res : results) {
    EXPECT_EQ(res.events, ref.events);
    EXPECT_EQ(res.occurred, ref.occurred);
    EXPECT_EQ(res.expired, ref.expired);
    EXPECT_EQ(res.adj_entries_scanned, ref.adj_entries_scanned);
    EXPECT_EQ(res.adj_entries_matched, ref.adj_entries_matched);
  }
}

/// Memory estimate proportional to the live-edge count: unlike the real
/// engines (whose pools never shrink), this makes the mid-stream window
/// high-water point genuinely larger than the end state.
class LiveWeightedEngine : public ContinuousEngine {
 public:
  std::string name() const override { return "live-weighted"; }
  void OnEdgeInserted(const TemporalEdge&) override { ++live_; }
  void OnEdgeExpiring(const TemporalEdge&) override { --live_; }
  size_t StateMemoryBytes() const override { return live_ << 20; }

 private:
  size_t live_ = 0;
};

TEST_P(StreamDriverSources, PeakMemoryCatchesHighWaterBetweenSamples) {
  // 20 arrivals, then a pure-expiry tail: the peak (20 live edges) is the
  // last arrival's delivery, and every later one sees a shrinking window.
  SharedStreamContext ctx(TwoVertexSchema());
  LiveWeightedEngine engine;
  ctx.Attach(&engine);
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  for (size_t i = 0; i < 20; ++i) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(i);
    e.src = 0;
    e.dst = 1;
    e.ts = static_cast<Timestamp>(i + 1);
    ds.edges.push_back(e);
  }
  StreamConfig config;
  config.window = 1000;  // nothing expires until the stream is exhausted
  const StreamResult res = Drive(ds, config, &ctx);
  ASSERT_TRUE(res.completed);
  EXPECT_GE(res.peak_memory_bytes, size_t{20} << 20);
  EXPECT_EQ(res.peak_memory_event_index, 20u);
}

/// Estimate that spikes at exactly one event of the stream and otherwise
/// follows the live-edge count.
class SpikeEngine : public ContinuousEngine {
 public:
  explicit SpikeEngine(size_t spike_at) : spike_at_(spike_at) {}
  std::string name() const override { return "spike"; }
  void OnEdgeInserted(const TemporalEdge&) override {
    ++live_;
    ++events_;
  }
  void OnEdgeExpiring(const TemporalEdge&) override {
    --live_;
    ++events_;
  }
  size_t StateMemoryBytes() const override {
    return events_ == spike_at_ ? size_t{1} << 30 : live_ << 10;
  }

 private:
  size_t spike_at_;
  size_t live_ = 0;
  size_t events_ = 0;
};

/// Records the context estimate after every delivery, with the event
/// count at that point: the brute-force reference for the driver's peak.
class FootprintRecordingContext : public SharedStreamContext {
 public:
  using SharedStreamContext::SharedStreamContext;
  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override {
    SharedStreamContext::OnEdgeArrivalBatch(edges, count);
    Record(count);
  }
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count) override {
    SharedStreamContext::OnEdgeExpiryBatch(edges, count);
    Record(count);
  }
  /// (events delivered so far, estimate) after each delivery.
  std::vector<std::pair<size_t, size_t>> after;

 private:
  void Record(size_t count) {
    events_ += count;
    after.emplace_back(events_, EstimateMemoryBytes());
  }
  size_t events_ = 0;
};

TEST_P(StreamDriverSources, PeakMemoryIsExactAtEveryDelivery) {
  // 100 arrivals through a window of 10: 200 one-event deliveries that
  // interleave expirations and arrivals. The estimate peaks once, at
  // event 101 (an expiration mid-stream): neither the last arrival nor
  // the end of the stream, and off any fixed sampling cadence's points
  // (every 6 or every 64 events miss it). The driver's peak and its event
  // index must equal the brute-force maximum over deliveries.
  FootprintRecordingContext ctx(TwoVertexSchema());
  SpikeEngine engine(101);
  ctx.Attach(&engine);
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  for (size_t i = 0; i < 100; ++i) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(i);
    e.src = 0;
    e.dst = 1;
    e.ts = static_cast<Timestamp>(i + 1);
    ds.edges.push_back(e);
  }
  StreamConfig config;
  config.window = 10;
  const StreamResult res = Drive(ds, config, &ctx);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.events, 200u);
  ASSERT_EQ(ctx.after.size(), 200u);
  std::pair<size_t, size_t> brute{0, 0};  // (event index, bytes)
  for (const auto& [events, bytes] : ctx.after) {
    if (bytes > brute.second) brute = {events, bytes};
  }
  EXPECT_EQ(brute.first, 101u);
  EXPECT_EQ(res.peak_memory_bytes, brute.second);
  EXPECT_EQ(res.peak_memory_event_index, brute.first);
}

/// Context that records the size of every batch the driver hands it.
class BatchRecordingContext : public SharedStreamContext {
 public:
  using SharedStreamContext::SharedStreamContext;
  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override {
    arrival_batches.push_back(count);
    SharedStreamContext::OnEdgeArrivalBatch(edges, count);
  }
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count) override {
    expiry_batches.push_back(count);
    SharedStreamContext::OnEdgeExpiryBatch(edges, count);
  }
  std::vector<size_t> arrival_batches;
  std::vector<size_t> expiry_batches;
};

TEST_P(StreamDriverSources, CoalescesSameTimestampRuns) {
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  const Timestamp times[] = {1, 1, 1, 2, 2, 9};
  for (size_t i = 0; i < 6; ++i) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(i);
    e.src = 0;
    e.dst = 1;
    e.ts = times[i];
    ds.edges.push_back(e);
  }
  StreamConfig config;
  config.window = 100;
  {
    BatchRecordingContext ctx(TwoVertexSchema());
    RecordingEngine engine;
    ctx.Attach(&engine);
    const StreamResult res = Drive(ds, config, &ctx);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.events, 12u);
    EXPECT_EQ(ctx.arrival_batches, (std::vector<size_t>{3, 2, 1}));
    EXPECT_EQ(ctx.expiry_batches, (std::vector<size_t>{3, 2, 1}));
    ASSERT_EQ(engine.events.size(), 12u);  // per-edge hooks, batched driver
  }
  {
    // The cap splits runs; 1 restores the one-call-per-event behavior.
    BatchRecordingContext ctx(TwoVertexSchema());
    config.max_batch = 2;
    const StreamResult res = Drive(ds, config, &ctx);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(ctx.arrival_batches, (std::vector<size_t>{2, 1, 2, 1}));
  }
  {
    BatchRecordingContext ctx(TwoVertexSchema());
    config.max_batch = 1;
    const StreamResult res = Drive(ds, config, &ctx);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(ctx.arrival_batches, std::vector<size_t>(6, 1));
    EXPECT_EQ(ctx.expiry_batches, std::vector<size_t>(6, 1));
  }
}

TEST(SharedStreamContext, OutOfOrderExpiryIsSupported) {
  // Out-of-order expiry (not produced by the stream driver, but allowed on
  // the context) is an O(1) unlink in the slot-recycled storage — no
  // linear-scan fallback exists anymore.
  SharedStreamContext ctx(GraphSchema{false, {0, 0, 0}});
  const TemporalDataset ds = [] {
    TemporalDataset d;
    d.vertex_labels = {0, 0, 0};
    const std::pair<VertexId, VertexId> ends[] = {{0, 1}, {0, 1}, {1, 2}};
    for (size_t i = 0; i < 3; ++i) {
      TemporalEdge e;
      e.id = static_cast<EdgeId>(i);
      e.src = ends[i].first;
      e.dst = ends[i].second;
      e.ts = static_cast<Timestamp>(i + 1);
      d.edges.push_back(e);
    }
    return d;
  }();
  for (const TemporalEdge& e : ds.edges) ctx.OnEdgeArrival(e);
  ctx.OnEdgeExpiry(ds.edges[1]);  // middle of vertex 0/1 adjacency
  EXPECT_FALSE(ctx.graph().Alive(1));
  EXPECT_TRUE(ctx.graph().Alive(0));
  EXPECT_EQ(ctx.graph().NumAliveEdges(), 2u);
  ctx.OnEdgeExpiry(ds.edges[0]);
  ctx.OnEdgeExpiry(ds.edges[2]);
  EXPECT_EQ(ctx.graph().NumAliveEdges(), 0u);
}

TEST(SharedStreamContext, OneGraphManyEngines) {
  // Two engines attached to one context see the same canonical graph and
  // the context accounts its bytes once.
  const QueryGraph q = testlib::RunningExampleQuery();
  SharedStreamContext ctx(testlib::RunningExampleSchema());
  TcmEngine a(q, ctx.graph());
  TcmEngine b(q, ctx.graph());
  ctx.Attach(&a);
  ctx.Attach(&b);
  EXPECT_EQ(&a.graph(), &ctx.graph());
  EXPECT_EQ(&b.graph(), &ctx.graph());

  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const TemporalEdge& e : ds.edges) ctx.OnEdgeArrival(e);
  EXPECT_EQ(ctx.graph().NumAliveEdges(), ds.edges.size());
  EXPECT_EQ(a.counters().occurred, b.counters().occurred);
  EXPECT_EQ(ctx.AggregateCounters().occurred, 2 * a.counters().occurred);
  EXPECT_EQ(ctx.EstimateMemoryBytes(),
            ctx.graph().EstimateMemoryBytes() + a.EstimateMemoryBytes() +
                b.EstimateMemoryBytes());
}

}  // namespace
}  // namespace tcsm
