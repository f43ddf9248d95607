#include <gtest/gtest.h>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "baselines/timing_engine.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "testlib/running_example.h"
#include "testlib/stream_checker.h"

namespace tcsm {
namespace {

TEST(PostFilterEngine, MatchesOracleOnRunningExample) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const Timestamp window : {5, 10, 100}) {
    SingleQueryContext<PostFilterEngine> run(q,
                                             testlib::RunningExampleSchema());
    testlib::CheckEngineAgainstOracle(ds, q, window, &run);
    if (HasFailure()) return;
  }
}

TEST(LocalEnumEngine, MatchesOracleOnRunningExample) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const Timestamp window : {5, 10, 100}) {
    SingleQueryContext<LocalEnumEngine> run(q,
                                            testlib::RunningExampleSchema());
    testlib::CheckEngineAgainstOracle(ds, q, window, &run);
    if (HasFailure()) return;
  }
}

TEST(TimingEngine, MatchesOracleOnRunningExample) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const Timestamp window : {5, 10, 100}) {
    SingleQueryContext<TimingEngine> run(q, testlib::RunningExampleSchema());
    testlib::CheckEngineAgainstOracle(ds, q, window, &run);
    if (HasFailure()) return;
  }
}

TEST(TimingEngine, MaterializesPartialEmbeddings) {
  const QueryGraph q = testlib::RunningExampleQuery();
  SingleQueryContext<TimingEngine> run(q, testlib::RunningExampleSchema());
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const TemporalEdge& e : ds.edges) run.OnEdgeArrival(e);
  // Materialized prefixes exist at every level (exponential-space design).
  EXPECT_GT(run.engine().NumRecords(), 16u);
  const size_t with_all = run.engine().NumRecords();
  // Expire sigma_1..sigma_4: records referencing them disappear.
  for (size_t i = 0; i < 4; ++i) run.OnEdgeExpiry(ds.edges[i]);
  EXPECT_LT(run.engine().NumRecords(), with_all);
}

TEST(TimingEngine, OverflowCapMarksIncomplete) {
  const QueryGraph q = testlib::RunningExampleQuery();
  TimingConfig config;
  config.max_records = 8;  // absurdly small
  SingleQueryContext<TimingEngine> run(q, testlib::RunningExampleSchema(),
                                       config);
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const TemporalEdge& e : ds.edges) {
    run.OnEdgeArrival(e);
    if (run.overflowed()) break;
  }
  EXPECT_TRUE(run.overflowed());
}

TEST(TimingEngine, MemoryGrowsWithMaterialization) {
  const QueryGraph q = testlib::RunningExampleQuery();
  SingleQueryContext<TimingEngine> run(q, testlib::RunningExampleSchema());
  const size_t before = run.engine().EstimateMemoryBytes();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const TemporalEdge& e : ds.edges) run.OnEdgeArrival(e);
  EXPECT_GT(run.engine().EstimateMemoryBytes(), before);
}

TEST(Baselines, DensityInsensitiveBaselinesStillCorrect) {
  // A density-1 variant of the running-example query: the post-filter
  // engines do the same search but must report only ordered embeddings.
  QueryGraph q;
  q.AddVertex(0);
  q.AddVertex(1);
  q.AddVertex(2);
  const EdgeId a = q.AddEdge(0, 1);
  const EdgeId b = q.AddEdge(1, 2);
  const EdgeId c = q.AddEdge(0, 2);
  ASSERT_TRUE(q.AddOrder(a, b).ok());
  ASSERT_TRUE(q.AddOrder(b, c).ok());

  TemporalDataset ds;
  ds.vertex_labels = {0, 1, 2, 1};
  auto add = [&](VertexId s, VertexId d, Timestamp t) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(ds.edges.size());
    e.src = s;
    e.dst = d;
    e.ts = t;
    ds.edges.push_back(e);
  };
  add(0, 1, 1);
  add(1, 2, 2);
  add(0, 2, 3);  // ordered triangle: one match
  add(0, 3, 4);
  add(3, 2, 5);  // second wedge, but c image (ts 3) now violates b < c

  const GraphSchema schema{false, ds.vertex_labels};
  {
    SingleQueryContext<PostFilterEngine> run(q, schema);
    testlib::CheckEngineAgainstOracle(ds, q, 100, &run);
  }
  {
    SingleQueryContext<LocalEnumEngine> run(q, schema);
    testlib::CheckEngineAgainstOracle(ds, q, 100, &run);
  }
  {
    SingleQueryContext<TimingEngine> run(q, schema);
    testlib::CheckEngineAgainstOracle(ds, q, 100, &run);
  }
}

// A one-label path u0-u1-u2 over two vertices joined by three parallel
// edges plus a third vertex: mapping u0 and u2 to the same data vertex
// through two distinct parallel edges passes every edge-level check, so
// only vertex injectivity rejects it. Typed per engine so a failure in one
// does not stop the oracle check of the others.
template <typename EngineT>
class VertexInjectivity : public ::testing::Test {};
using InjectivityEngines = ::testing::Types<TcmEngine, PostFilterEngine,
                                            LocalEnumEngine, TimingEngine>;
TYPED_TEST_SUITE(VertexInjectivity, InjectivityEngines);

TYPED_TEST(VertexInjectivity, AcrossParallelEdges) {
  QueryGraph q;
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);

  TemporalDataset ds;
  ds.vertex_labels = {0, 0, 0};
  auto add = [&](VertexId s, VertexId d, Timestamp t) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(ds.edges.size());
    e.src = s;
    e.dst = d;
    e.ts = t;
    ds.edges.push_back(e);
  };
  add(0, 1, 1);
  add(1, 0, 2);
  add(0, 1, 3);
  add(1, 2, 4);

  SingleQueryContext<TypeParam> run(q, GraphSchema{false, ds.vertex_labels});
  EXPECT_GT(testlib::CheckEngineAgainstOracle(ds, q, 100, &run), 0u);
}

TEST(Baselines, NamesAreStable) {
  const QueryGraph q = testlib::RunningExampleQuery();
  SharedStreamContext ctx(testlib::RunningExampleSchema());
  EXPECT_EQ(PostFilterEngine(q, ctx.graph()).name(), "SymBi-Post");
  EXPECT_EQ(LocalEnumEngine(q, ctx.graph()).name(), "LocalEnum-Post");
  EXPECT_EQ(TimingEngine(q, ctx.graph()).name(), "Timing");
}

}  // namespace
}  // namespace tcsm
