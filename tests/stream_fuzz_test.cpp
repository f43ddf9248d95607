// Randomized differential stream fuzzer: every scenario of the catalogue
// (tests/testlib/fuzz_scenarios.h) is replayed through TCM under all 2^3
// pruning-flag ablations, the filter ablations, and the three baseline
// engines, asserting after every event that the reported occurred/expired
// embedding sets equal the brute-force snapshot oracle's diff
// (tests/testlib/stream_checker.h). The multi-query scenario additionally
// replays each entry through a MultiQueryEngine and diffs every tagged
// per-query stream against an independently run single-query engine, and
// the parallel scenario replays a 4-query fan-out at 2/4/8 threads and
// requires byte-identical per-query streams versus serial execution. Any
// divergence reproduces from the scenario name, which encodes the seed.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "baselines/timing_engine.h"
#include "common/rng.h"
#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "obs/observability.h"
#include "querygen/query_generator.h"
#include "shard/sharded_context.h"
#include "shard/sharded_engine.h"
#include "testlib/fuzz_scenarios.h"
#include "testlib/stream_checker.h"

namespace tcsm {
namespace {

using testlib::DefaultFuzzScenarios;
using testlib::FuzzScenario;

std::string ScenarioName(const ::testing::TestParamInfo<FuzzScenario>& info) {
  return info.param.name;
}

class StreamFuzz : public ::testing::TestWithParam<FuzzScenario> {
 protected:
  /// Generates the scenario's dataset and query; fails the test (rather
  /// than skipping) when generation is impossible so a scenario can never
  /// silently stop covering anything.
  void SetUp() override {
    const FuzzScenario& sc = GetParam();
    dataset_ = GenerateSynthetic(sc.spec);
    ASSERT_GT(dataset_.NumEdges(), 0u);
    Rng rng(sc.seed ^ 0x9e3779b97f4a7c15ull);
    ASSERT_TRUE(GenerateQuery(dataset_, sc.query, &rng, &query_))
        << "scenario " << sc.name << " cannot extract a "
        << sc.query.num_edges << "-edge query; re-tune the catalogue";
    schema_ = GraphSchema{dataset_.directed, dataset_.vertex_labels};
  }

  /// Replays the scenario through the rig and records the first run's
  /// total occurred count as the cross-engine reference.
  template <typename EngineT>
  void Check(SingleQueryContext<EngineT>* run) {
    const uint64_t occurred = testlib::CheckEngineAgainstOracle(
        dataset_, query_, GetParam().window, run);
    if (HasFailure()) return;
    if (!have_reference_) {
      have_reference_ = true;
      reference_ = occurred;
    } else {
      EXPECT_EQ(occurred, reference_)
          << run->engine().name() << ": total occurred count diverged";
    }
  }

  TemporalDataset dataset_;
  QueryGraph query_;
  GraphSchema schema_;
  bool have_reference_ = false;
  uint64_t reference_ = 0;
};

// All 2^3 combinations of the three pruning techniques of Section V.
TEST_P(StreamFuzz, TcmPruningAblations) {
  for (int bits = 0; bits < 8; ++bits) {
    TcmConfig config;
    config.prune_no_relation = (bits & 1) != 0;
    config.prune_uniform = (bits & 2) != 0;
    config.prune_failing_set = (bits & 4) != 0;
    SingleQueryContext<TcmEngine> run(query_, schema_, config);
    SCOPED_TRACE("pruning bits " + std::to_string(bits));
    Check(&run);
    if (HasFailure()) return;
  }
}

// The Table V ablation: TCM with and without TC-matchable filtering
// (SymBi-style DCS) must both reproduce the oracle.
TEST_P(StreamFuzz, TcmFilterAblations) {
  {
    SingleQueryContext<TcmEngine> run(query_, schema_);
    Check(&run);
    if (HasFailure()) return;
  }
  {
    TcmConfig config;
    config.use_tc_filter = false;
    SingleQueryContext<TcmEngine> run(query_, schema_, config);
    SCOPED_TRACE("tc filter off");
    Check(&run);
  }
}

// The three competing engines must report the same per-event sets.
TEST_P(StreamFuzz, BaselinesMatchOracle) {
  {
    SingleQueryContext<TcmEngine> run(query_, schema_);
    Check(&run);
    if (HasFailure()) return;
  }
  {
    SingleQueryContext<PostFilterEngine> run(query_, schema_);
    Check(&run);
    if (HasFailure()) return;
  }
  {
    SingleQueryContext<LocalEnumEngine> run(query_, schema_);
    Check(&run);
    if (HasFailure()) return;
  }
  {
    SingleQueryContext<TimingEngine> run(query_, schema_);
    Check(&run);
  }
}

// Gap-bound pruning ablation (DESIGN.md §12): with prune_gap_bounds off
// the ECM windows ignore gap constraints and complete embeddings are
// post-filtered instead. Both modes must match the oracle exactly, and
// in-search pruning may only ever shrink the explored tree. On scenarios
// without gaps the two configurations are the identical code path.
TEST_P(StreamFuzz, GapPruningMatchesPostFilter) {
  SingleQueryContext<TcmEngine> pruned(query_, schema_);
  Check(&pruned);
  if (HasFailure()) return;

  TcmConfig config;
  config.prune_gap_bounds = false;
  SingleQueryContext<TcmEngine> post(query_, schema_, config);
  SCOPED_TRACE("gap post-filter mode");
  Check(&post);
  if (HasFailure()) return;

  EXPECT_LE(pruned.engine().counters().search_nodes,
            post.engine().counters().search_nodes)
      << "gap pruning enlarged the search tree";
  if (query_.gaps().empty()) {
    EXPECT_EQ(pruned.engine().counters().search_nodes,
              post.engine().counters().search_nodes)
        << "prune_gap_bounds changed the search on a gap-free query";
  }
}

// Multi-query differential: a MultiQueryEngine over {q, q-variant} on the
// one shared graph must emit, per query, exactly the match stream of an
// independently run single-query TCM engine with its own context.
TEST_P(StreamFuzz, MultiQueryMatchesSingleQueryEngines) {
  // Variant query from an independent walk seed; if the dataset cannot
  // yield one, duplicating the primary still exercises the fan-out.
  QueryGraph variant;
  Rng rng(GetParam().seed ^ 0x517cc1b727220a95ull);
  if (!GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
    variant = query_;
  }
  const std::vector<QueryGraph> queries{query_, variant};

  struct TaggedStreams : MultiMatchSink {
    std::array<std::vector<std::pair<Embedding, MatchKind>>, 2> streams;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
      }
    }
  } tagged;

  MultiQueryEngine multi(queries, schema_);
  multi.set_multi_sink(&tagged);
  StreamConfig config;
  config.window = GetParam().window;
  const StreamResult res = RunStream(dataset_, config, &multi);
  ASSERT_TRUE(res.completed);

  uint64_t total = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SingleQueryContext<TcmEngine> solo(queries[qi], schema_);
    CollectingSink sink;
    solo.engine().set_sink(&sink);
    const StreamResult solo_res = RunStream(dataset_, config, &solo);
    ASSERT_TRUE(solo_res.completed);
    EXPECT_EQ(tagged.streams[qi], sink.matches())
        << "tagged stream of query " << qi
        << " diverged from the single-query engine";
    total += solo_res.occurred + solo_res.expired;
  }
  EXPECT_EQ(res.occurred + res.expired, total);
}

// Parallel differential: the same multi-query fan-out sharded across 2,
// 4, and 8 threads by the ParallelStreamContext machinery must emit, per
// query, exactly the match stream of the serial MultiQueryEngine —
// occurred and expired sets byte-identical *including order* (the
// deterministic-merge contract of DESIGN.md §6).
TEST_P(StreamFuzz, ParallelMatchesSerialMultiQuery) {
  // A 4-query set: the primary plus three independent walk variants
  // (falling back to earlier queries where the dataset yields no new
  // walk), so the shards are non-trivial at every thread count.
  std::vector<QueryGraph> queries{query_};
  for (uint64_t k = 1; k <= 3; ++k) {
    QueryGraph variant;
    Rng rng(GetParam().seed ^ (0x517cc1b727220a95ull * k));
    if (GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
      queries.push_back(variant);
    } else {
      queries.push_back(queries[k - 1]);
    }
  }

  struct TaggedStreams : MultiMatchSink {
    explicit TaggedStreams(size_t n) : streams(n) {}
    std::vector<std::vector<std::pair<Embedding, MatchKind>>> streams;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
      }
    }
  };

  StreamConfig config;
  config.window = GetParam().window;

  TaggedStreams serial(queries.size());
  uint64_t serial_total = 0;
  {
    MultiQueryEngine engine(queries, schema_);
    engine.set_multi_sink(&serial);
    const StreamResult res = RunStream(dataset_, config, &engine);
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(res.num_threads, 1u);
    serial_total = res.occurred + res.expired;
  }

  for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TaggedStreams parallel(queries.size());
    MultiQueryEngine engine(queries, schema_, TcmConfig{}, threads);
    engine.set_multi_sink(&parallel);
    const StreamResult res = RunStream(dataset_, config, &engine);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.num_threads, threads);
    EXPECT_EQ(res.occurred + res.expired, serial_total);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(parallel.streams[qi], serial.streams[qi])
          << "per-query stream of query " << qi
          << " diverged from serial execution";
    }
  }
}

// Sharded differential: the same 4-query fan-out over a vertex-
// partitioned ShardedStreamContext at 2, 4, and 8 shards, each at 1 and
// 4 threads, must emit exactly the serial MultiQueryEngine's match
// stream — per query AND globally, byte-identical including order (the
// attach-order merge of DESIGN.md §6, which the sharded context runs
// unchanged, §10). Scan counters must match too: mirrored owner
// adjacency makes every engine read — candidate scans included —
// identical to the unsharded run, not merely the final embedding sets.
// Engines are not bound to shards, so the global order must not depend
// on how they are attached: plain Attach over 2 shards and descending
// AttachToShard over 4 keep the serial global order as well.
TEST_P(StreamFuzz, ShardedMatchesSerial) {
  std::vector<QueryGraph> queries{query_};
  for (uint64_t k = 1; k <= 3; ++k) {
    QueryGraph variant;
    Rng rng(GetParam().seed ^ (0x517cc1b727220a95ull * k));
    if (GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
      queries.push_back(variant);
    } else {
      queries.push_back(queries[k - 1]);
    }
  }

  struct TaggedStreams : MultiMatchSink {
    explicit TaggedStreams(size_t n) : streams(n) {}
    std::vector<std::vector<std::pair<Embedding, MatchKind>>> streams;
    /// The global interleaving across queries, for the whole-stream
    /// byte-identity check (per-query equality alone would not catch a
    /// merge-order bug).
    std::vector<std::tuple<size_t, Embedding, MatchKind>> global;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
        global.emplace_back(query_index, embedding, kind);
      }
    }
  };

  StreamConfig config;
  config.window = GetParam().window;

  TaggedStreams serial(queries.size());
  StreamResult serial_res;
  {
    MultiQueryEngine engine(queries, schema_);
    engine.set_multi_sink(&serial);
    serial_res = RunStream(dataset_, config, &engine);
    ASSERT_TRUE(serial_res.completed);
    ASSERT_EQ(serial_res.num_shards, 1u);
  }

  for (const size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                   std::to_string(threads));
      TaggedStreams sharded(queries.size());
      ShardedMultiQueryEngine engine(queries, schema_, TcmConfig{}, shards,
                                     threads);
      engine.set_multi_sink(&sharded);
      const StreamResult res = RunStream(dataset_, config, &engine);
      ASSERT_TRUE(res.completed);
      EXPECT_EQ(res.num_shards, shards);
      EXPECT_EQ(res.num_threads, threads);
      EXPECT_EQ(res.occurred + res.expired,
                serial_res.occurred + serial_res.expired);
      EXPECT_EQ(res.adj_entries_scanned, serial_res.adj_entries_scanned)
          << "sharded execution scanned different adjacency entries";
      EXPECT_EQ(res.adj_entries_matched, serial_res.adj_entries_matched);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        EXPECT_EQ(sharded.streams[qi], serial.streams[qi])
            << "per-query stream of query " << qi
            << " diverged from serial execution";
      }
      EXPECT_EQ(sharded.global, serial.global)
          << "global match interleaving diverged from serial execution";
    }
  }

  struct Placement {
    const char* name;
    size_t shards;
    bool descending;  // AttachToShard(shards - 1 - i), else plain Attach
  };
  for (const Placement placement :
       {Placement{"attach", 2, false}, Placement{"descending", 4, true}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(placement.name) + " threads " +
                   std::to_string(threads));
      TaggedStreams placed(queries.size());
      MultiMatchSink* slot = &placed;
      ShardedStreamContext context(schema_, placement.shards, threads);
      std::vector<std::unique_ptr<ShardedTcmEngine>> engines;
      std::vector<std::unique_ptr<TaggedSink>> sinks;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        engines.push_back(
            std::make_unique<ShardedTcmEngine>(queries[qi], context.view()));
        sinks.push_back(std::make_unique<TaggedSink>(&slot, qi));
        engines.back()->set_sink(sinks.back().get());
        if (placement.descending) {
          context.AttachToShard(placement.shards - 1 - qi % placement.shards,
                                engines.back().get());
        } else {
          context.Attach(engines.back().get());
        }
      }
      ASSERT_TRUE(RunStream(dataset_, config, &context).completed);
      EXPECT_EQ(placed.global, serial.global)
          << "global match interleaving diverged from serial execution";
    }
  }
}

// Batching differential: driving the same 4-query fan-out with
// micro-batching disabled (max_batch = 1, the historical one-call-per-
// event behavior) and with the default batching must emit byte-identical
// per-query match streams, serially and through the pipelined parallel
// fan-out (DESIGN.md §9). On the same_ts_* scenarios the batches are
// real; elsewhere this degenerates to the single-event path.
TEST_P(StreamFuzz, BatchedMatchesUnbatchedDelivery) {
  std::vector<QueryGraph> queries{query_};
  for (uint64_t k = 1; k <= 3; ++k) {
    QueryGraph variant;
    Rng rng(GetParam().seed ^ (0x517cc1b727220a95ull * k));
    if (GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
      queries.push_back(variant);
    } else {
      queries.push_back(queries[k - 1]);
    }
  }

  struct TaggedStreams : MultiMatchSink {
    explicit TaggedStreams(size_t n) : streams(n) {}
    std::vector<std::vector<std::pair<Embedding, MatchKind>>> streams;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
      }
    }
  };

  StreamConfig unbatched;
  unbatched.window = GetParam().window;
  unbatched.max_batch = 1;
  StreamConfig batched = unbatched;
  batched.max_batch = 0;  // default coalescing

  TaggedStreams reference(queries.size());
  {
    MultiQueryEngine engine(queries, schema_);
    engine.set_multi_sink(&reference);
    const StreamResult res = RunStream(dataset_, unbatched, &engine);
    ASSERT_TRUE(res.completed);
  }

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TaggedStreams run(queries.size());
    MultiQueryEngine engine(queries, schema_, TcmConfig{}, threads);
    engine.set_multi_sink(&run);
    const StreamResult res = RunStream(dataset_, batched, &engine);
    ASSERT_TRUE(res.completed);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(run.streams[qi], reference.streams[qi])
          << "per-query stream of query " << qi
          << " diverged under batched delivery";
    }
  }
}

// Observability differential: running with a metrics registry attached
// (no tracing — DESIGN.md §11's zero-perturbation contract) must emit
// byte-identical per-query match streams, and the registry's event
// accounting must reconcile exactly with the StreamResult totals —
// through the parallel fan-out at 1 and 4 threads and the sharded
// context at 2 and 4 shards.
TEST_P(StreamFuzz, MetricsDoNotPerturbMatching) {
  std::vector<QueryGraph> queries{query_};
  for (uint64_t k = 1; k <= 3; ++k) {
    QueryGraph variant;
    Rng rng(GetParam().seed ^ (0x517cc1b727220a95ull * k));
    if (GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
      queries.push_back(variant);
    } else {
      queries.push_back(queries[k - 1]);
    }
  }

  struct TaggedStreams : MultiMatchSink {
    explicit TaggedStreams(size_t n) : streams(n) {}
    std::vector<std::vector<std::pair<Embedding, MatchKind>>> streams;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
      }
    }
  };

  StreamConfig plain;
  plain.window = GetParam().window;

  TaggedStreams reference(queries.size());
  {
    MultiQueryEngine engine(queries, schema_);
    engine.set_multi_sink(&reference);
    const StreamResult res = RunStream(dataset_, plain, &engine);
    ASSERT_TRUE(res.completed);
  }

  const auto check = [&](const StreamResult& res, const TaggedStreams& run,
                         const Observability& obs,
                         const EngineCounters& agg) {
    ASSERT_TRUE(res.completed);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(run.streams[qi], reference.streams[qi])
          << "per-query stream of query " << qi << " diverged with metrics on";
    }
    const MetricsSnapshot snap = obs.Snapshot();
    EXPECT_EQ(snap.CounterValue("stream.arrivals") +
                  snap.CounterValue("stream.expirations"),
              res.events)
        << "per-stage event counters do not reconcile with the result";
    EXPECT_EQ(snap.GaugeValue("engine.occurred"),
              static_cast<int64_t>(res.occurred));
    EXPECT_EQ(snap.GaugeValue("engine.expired"),
              static_cast<int64_t>(res.expired));
    // Engine time has one record, EngineCounters: the run's deltas in
    // the result, the gauges and the context's aggregate all agree.
    EXPECT_EQ(res.update_ns, agg.update_ns);
    EXPECT_EQ(res.search_ns, agg.search_ns);
    EXPECT_EQ(snap.GaugeValue("engine.update_ns"),
              static_cast<int64_t>(res.update_ns));
    EXPECT_EQ(snap.GaugeValue("engine.search_ns"),
              static_cast<int64_t>(res.search_ns));
    EXPECT_EQ(snap.GaugeValue("stream.peak_event_index"),
              static_cast<int64_t>(res.peak_memory_event_index));
    EXPECT_LE(res.peak_memory_event_index, res.events);
  };

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Observability obs;
    StreamConfig config = plain;
    config.obs = &obs;
    TaggedStreams run(queries.size());
    MultiQueryEngine engine(queries, schema_, TcmConfig{}, threads);
    engine.set_multi_sink(&run);
    const StreamResult res = RunStream(dataset_, config, &engine);
    check(res, run, obs, engine.AggregateCounters());
  }

  for (const size_t shards : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Observability obs;
    StreamConfig config = plain;
    config.obs = &obs;
    TaggedStreams run(queries.size());
    ShardedMultiQueryEngine engine(queries, schema_, TcmConfig{}, shards,
                                   /*num_threads=*/4);
    engine.set_multi_sink(&run);
    const StreamResult res = RunStream(dataset_, config, &engine);
    check(res, run, obs, engine.AggregateCounters());
  }
}

INSTANTIATE_TEST_SUITE_P(Catalogue, StreamFuzz,
                         ::testing::ValuesIn(DefaultFuzzScenarios()),
                         ScenarioName);

}  // namespace
}  // namespace tcsm
