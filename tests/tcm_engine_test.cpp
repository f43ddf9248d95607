#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "testlib/running_example.h"
#include "testlib/stream_checker.h"

namespace tcsm {
namespace {

using TcmRun = SingleQueryContext<TcmEngine>;

// Example II.2: when sigma_14 arrives (window 10), the embedding through
// sigma_6 occurs; the one through the expired sigma_1 must not.
TEST(TcmEngine, RunningExampleWindowedStream) {
  const QueryGraph q = testlib::RunningExampleQuery();
  TcmRun run(q, testlib::RunningExampleSchema());
  CollectingSink sink;
  run.engine().set_sink(&sink);

  const TemporalDataset ds = testlib::RunningExampleDataset();
  StreamConfig config;
  config.window = 10;
  const StreamResult res = RunStream(ds, config, &run);
  ASSERT_TRUE(res.completed);

  Embedding expect;
  expect.vertices = {testlib::kV1, testlib::kV2, testlib::kV4, testlib::kV5,
                     testlib::kV7};
  expect.edges = {5, 7, 10, 12, 9, 13};  // s6 s8 s11 s13 s10 s14
  bool occurred = false;
  bool expired = false;
  bool sigma1_variant = false;
  for (const auto& [emb, kind] : sink.matches()) {
    if (emb == expect) {
      occurred = occurred || kind == MatchKind::kOccurred;
      expired = expired || kind == MatchKind::kExpired;
    }
    if (emb.edges[0] == 0) sigma1_variant = true;  // eps1 -> sigma_1
  }
  EXPECT_TRUE(occurred);
  EXPECT_TRUE(expired);  // sigma_6 leaves the window at t = 16
  EXPECT_FALSE(sigma1_variant);
  EXPECT_EQ(res.occurred, res.expired);  // every match eventually expires
}

TEST(TcmEngine, MatchesOracleOnRunningExample) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const Timestamp window : {3, 5, 10, 100}) {
    TcmRun run(q, testlib::RunningExampleSchema());
    testlib::CheckEngineAgainstOracle(ds, q, window, &run);
    if (HasFailure()) return;
  }
}

TEST(TcmEngine, UnlimitedWindowFindsAllSnapshotEmbeddings) {
  const QueryGraph q = testlib::RunningExampleQuery();
  TcmRun run(q, testlib::RunningExampleSchema());
  CountingSink sink;
  run.engine().set_sink(&sink);
  const TemporalDataset ds = testlib::RunningExampleDataset();
  StreamConfig config;
  config.window = 1000;
  const StreamResult res = RunStream(ds, config, &run);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.occurred, 16u);  // oracle count on the full graph
  EXPECT_EQ(res.expired, 16u);
}

TEST(TcmEngine, CountingSinkMatchesCollectingSink) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  StreamConfig config;
  config.window = 10;

  TcmRun r1(q, testlib::RunningExampleSchema());
  CountingSink counting;
  r1.engine().set_sink(&counting);
  const StreamResult res1 = RunStream(ds, config, &r1);

  TcmRun r2(q, testlib::RunningExampleSchema());
  CollectingSink collecting;
  r2.engine().set_sink(&collecting);
  const StreamResult res2 = RunStream(ds, config, &r2);

  ASSERT_TRUE(res1.completed && res2.completed);
  EXPECT_EQ(counting.occurred() + counting.expired(),
            collecting.matches().size());
  EXPECT_EQ(res1.occurred, res2.occurred);
}

TEST(TcmEngine, DcsShrinksWithTcFilter) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const TemporalDataset ds = testlib::RunningExampleDataset();

  TcmRun filtered(q, testlib::RunningExampleSchema());
  TcmConfig no_filter_cfg;
  no_filter_cfg.use_tc_filter = false;
  TcmRun unfiltered(q, testlib::RunningExampleSchema(), no_filter_cfg);

  // Feed sigma_1..sigma_13 (no expirations) and compare DCS sizes.
  for (size_t i = 0; i < 13; ++i) {
    filtered.OnEdgeArrival(ds.edges[i]);
    unfiltered.OnEdgeArrival(ds.edges[i]);
  }
  EXPECT_LT(filtered.engine().dcs().stats().num_edges,
            unfiltered.engine().dcs().stats().num_edges);
  EXPECT_LE(filtered.engine().dcs().stats().num_d2_nodes,
            unfiltered.engine().dcs().stats().num_d2_nodes);
  // Specifically, (eps2, sigma_8) is not TC-matchable before sigma_14.
  EXPECT_FALSE(
      filtered.engine().dcs().Contains(testlib::kE2, ds.edges[7], false));
  EXPECT_TRUE(
      unfiltered.engine().dcs().Contains(testlib::kE2, ds.edges[7], false));
  // After sigma_14 it enters the DCS (Example IV.4).
  filtered.OnEdgeArrival(ds.edges[13]);
  EXPECT_TRUE(
      filtered.engine().dcs().Contains(testlib::kE2, ds.edges[7], false));
  // (eps2, sigma_12) stays filtered.
  EXPECT_FALSE(
      filtered.engine().dcs().Contains(testlib::kE2, ds.edges[11], false));
}

TEST(TcmEngine, TimeLimitMarksRunIncomplete) {
  // A pathological clique-ish stream with an unconstrained query explodes;
  // a ~zero time limit must abort the run and report completed = false.
  QueryGraph q;
  for (int i = 0; i < 5; ++i) q.AddVertex(0);
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(2, 3);
  q.AddEdge(3, 4);
  q.AddEdge(0, 4);

  TemporalDataset ds;
  ds.vertex_labels.assign(12, 0);
  Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(i);
    e.src = static_cast<VertexId>(rng.NextBounded(12));
    e.dst = static_cast<VertexId>((e.src + 1 + rng.NextBounded(11)) % 12);
    e.ts = i + 1;
    ds.edges.push_back(e);
  }
  TcmRun run(q, GraphSchema{false, ds.vertex_labels});
  CountingSink sink;
  run.engine().set_sink(&sink);
  StreamConfig config;
  config.window = 400;
  config.time_limit_ms = 1;  // effectively immediate
  const StreamResult res = RunStream(ds, config, &run);
  EXPECT_FALSE(res.completed);
}

TEST(TcmEngine, DirectedRunningExampleVariant) {
  // Direct every data edge src->dst and the query accordingly; matches of
  // the undirected case that respect directions must survive.
  QueryGraph q(/*directed=*/true);
  q.AddVertex(0);
  q.AddVertex(1);
  q.AddVertex(2);
  const EdgeId a = q.AddEdge(0, 1);  // u0 -> u1
  const EdgeId b = q.AddEdge(1, 2);  // u1 -> u2
  ASSERT_TRUE(q.AddOrder(a, b).ok());

  TemporalDataset ds;
  ds.directed = true;
  ds.vertex_labels = {0, 1, 2, 1};
  auto add = [&](VertexId s, VertexId d, Timestamp t) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(ds.edges.size());
    e.src = s;
    e.dst = d;
    e.ts = t;
    ds.edges.push_back(e);
  };
  add(0, 1, 1);  // u0->u1 candidate
  add(1, 2, 2);  // completes a match (1 < 2)
  add(2, 1, 3);  // wrong direction for b
  add(3, 0, 4);  // wrong direction for a (label 1 -> label 0)

  TcmRun run(q, GraphSchema{true, ds.vertex_labels});
  CollectingSink sink;
  run.engine().set_sink(&sink);
  StreamConfig config;
  config.window = 100;
  const StreamResult res = RunStream(ds, config, &run);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.occurred, 1u);

  // Cross-check with the oracle-backed checker.
  TcmRun run2(q, GraphSchema{true, ds.vertex_labels});
  testlib::CheckEngineAgainstOracle(ds, q, 100, &run2);
}

TEST(TcmEngine, EdgeLabelsRestrictMatches) {
  QueryGraph q;
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddEdge(0, 1, /*elabel=*/5);

  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  for (int i = 0; i < 4; ++i) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(i);
    e.src = 0;
    e.dst = 1;
    e.ts = i + 1;
    e.label = (i % 2 == 0) ? 5 : 9;
    ds.edges.push_back(e);
  }
  TcmRun run(q, GraphSchema{false, ds.vertex_labels});
  CountingSink sink;
  run.engine().set_sink(&sink);
  StreamConfig config;
  config.window = 100;
  const StreamResult res = RunStream(ds, config, &run);
  ASSERT_TRUE(res.completed);
  // Two label-5 edges, each matched in both orientations.
  EXPECT_EQ(res.occurred, 4u);
}

TEST(TcmEngine, MemoryEstimateTracksWindow) {
  const QueryGraph q = testlib::RunningExampleQuery();
  TcmRun run(q, testlib::RunningExampleSchema());
  const size_t before = run.EstimateMemoryBytes();
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const TemporalEdge& e : ds.edges) run.OnEdgeArrival(e);
  EXPECT_GT(run.EstimateMemoryBytes(), before);
}

}  // namespace
}  // namespace tcsm
