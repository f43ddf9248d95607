// Hand-worked pinned fixtures for the temporal predicate extensions
// (DESIGN.md §12): the exact deferred match streams below are derived by
// hand in the comments and asserted byte-for-byte, so any change to the
// absence resolution points or to gap-bound pruning shows up as a diff
// against a human-checked expectation, not just against the oracle.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "graph/temporal_dataset.h"
#include "testlib/stream_checker.h"

namespace tcsm {
namespace {

TemporalEdge Packet(VertexId src, VertexId dst, Label label, Timestamp ts) {
  TemporalEdge e;
  e.src = src;
  e.dst = dst;
  e.label = label;
  e.ts = ts;
  return e;
}

/// Single directed query edge a -> b (labels 0), one absence predicate
/// n(b, a, label 1, delta): "no reply within delta".
QueryGraph ReplyQuery(Timestamp delta) {
  QueryGraph q(/*directed=*/true);
  const VertexId a = q.AddVertex(0);
  const VertexId b = q.AddVertex(0);
  q.AddEdge(a, b, /*elabel=*/0);
  EXPECT_TRUE(q.AddAbsence(b, a, /*label=*/1, delta).ok());
  return q;
}

Embedding Emb(std::vector<VertexId> vs, std::vector<EdgeId> es) {
  Embedding m;
  m.vertices = std::move(vs);
  m.edges = std::move(es);
  return m;
}

using Match = std::pair<Embedding, MatchKind>;

// Absence deferral changes the *order* of the match stream, not only its
// content. Two unanswered requests, delta = 10, window = 9:
//
//   edge 0: v0 -> v1  label 0  ts 0    edge 1: v0 -> v2  label 0  ts 2
//
//   event        unconstrained stream      with n(b, a, 1, 10)
//   ts 0  +e0    +M1                       M1 pending (T=0, D=10)
//   ts 2  +e1    +M2                       M2 pending (T=2, D=12)
//   ts 9  -e0    -M1                       +M1 then -M1  (resolved at its
//                                          own expiry: 9 < D=10)
//   ts 11 -e1    -M2                       +M2 then -M2
//
// Unconstrained: +M1 +M2 -M1 -M2.  Constrained: +M1 -M1 +M2 -M2 — the
// relative order of +M2 and -M1 swaps, because +M2 is held back past e1's
// arrival while -M1 resolves first.
TEST(PredicateFixture, AbsenceDeferralReordersEmission) {
  TemporalDataset ds;
  ds.directed = true;
  ds.vertex_labels = {0, 0, 0};
  ds.edges.push_back(Packet(0, 1, 0, 0));
  ds.edges.push_back(Packet(0, 2, 0, 2));
  ds.Normalize();

  const Embedding m1 = Emb({0, 1}, {0});
  const Embedding m2 = Emb({0, 2}, {1});

  StreamConfig config;
  config.window = 9;

  QueryGraph plain(/*directed=*/true);
  plain.AddVertex(0);
  plain.AddVertex(0);
  plain.AddEdge(0, 1, 0);
  {
    SingleQueryContext<TcmEngine> run(plain,
                                      GraphSchema{true, ds.vertex_labels});
    CollectingSink sink;
    run.engine().set_sink(&sink);
    ASSERT_TRUE(RunStream(ds, config, &run).completed);
    const std::vector<Match> want{{m1, MatchKind::kOccurred},
                                  {m2, MatchKind::kOccurred},
                                  {m1, MatchKind::kExpired},
                                  {m2, MatchKind::kExpired}};
    EXPECT_EQ(sink.matches(), want) << "unconstrained stream drifted";
  }
  {
    SingleQueryContext<TcmEngine> run(ReplyQuery(10),
                                      GraphSchema{true, ds.vertex_labels});
    CollectingSink sink;
    run.engine().set_sink(&sink);
    ASSERT_TRUE(RunStream(ds, config, &run).completed);
    const std::vector<Match> want{{m1, MatchKind::kOccurred},
                                  {m1, MatchKind::kExpired},
                                  {m2, MatchKind::kOccurred},
                                  {m2, MatchKind::kExpired}};
    EXPECT_EQ(sink.matches(), want) << "deferred stream drifted";
  }
}

// Every absence resolution path in one stream: kill by a later reply,
// flush when the first arrival passes the deadline, swallow of a
// suppressed embedding's expired report, and birth-kill by an equal-ts
// reply. Query edge a -> b label 0, n(b, a, 1, delta=5), window = 20.
//
//   edge 0  A:  v0 -> v1  label 0  ts 0   (request, later answered)
//   edge 1  R:  v1 -> v0  label 1  ts 3   (reply: kills M1)
//   edge 2  B:  v0 -> v2  label 0  ts 4   (request, never answered)
//   edge 3  C:  v0 -> v1  label 0  ts 12  (request, never answered)
//   edge 4  R2: v3 -> v0  label 1  ts 30  (reply arriving with S)
//   edge 5  S:  v0 -> v3  label 0  ts 30  (request, answered at birth)
//
//   event         effect
//   ts 0   +A     M1={v0,v1;A} pending (T=0, D=5)
//   ts 3   +R     R hits (img b=v1 -> img a=v0, label 1, ts 3 in [0,5]):
//                 M1 -> suppressed
//   ts 4   +B     M2={v0,v2;B} pending (T=4, D=9)
//   ts 12  +C     flush D<12: emit +M2; M3={v0,v1;C} pending (T=12, D=17)
//   ts 20  -A     M1 expired: suppressed -> swallowed (no report at all)
//   ts 23  -R     no match (label 1 is not the query edge's label)
//   ts 24  -B     M2 already occurred: emit -M2
//   ts 30  +R2    flush D<30: emit +M3; R2 buffered for equal-ts births
//   ts 30  +S     M4={v0,v3;S} occurs at T=30; birth check sees R2
//                 (v3 -> v0, label 1, ts 30 in [30,35]): M4 -> suppressed
//   ts 32  -C     M3 already occurred: emit -M3
//   ts 50  -R2    no match
//   ts 50  -S     M4 expired: suppressed -> swallowed
//
// Pinned stream: +M2 -M2 +M3 -M3. M1 and M4 never surface.
TEST(PredicateFixture, AbsenceResolutionPaths) {
  TemporalDataset ds;
  ds.directed = true;
  ds.vertex_labels = {0, 0, 0, 0};
  ds.edges.push_back(Packet(0, 1, 0, 0));
  ds.edges.push_back(Packet(1, 0, 1, 3));
  ds.edges.push_back(Packet(0, 2, 0, 4));
  ds.edges.push_back(Packet(0, 1, 0, 12));
  ds.edges.push_back(Packet(3, 0, 1, 30));
  ds.edges.push_back(Packet(0, 3, 0, 30));
  ds.Normalize();

  const QueryGraph query = ReplyQuery(5);
  SingleQueryContext<TcmEngine> run(query,
                                    GraphSchema{true, ds.vertex_labels});
  CollectingSink sink;
  run.engine().set_sink(&sink);
  StreamConfig config;
  config.window = 20;
  ASSERT_TRUE(RunStream(ds, config, &run).completed);

  const Embedding m2 = Emb({0, 2}, {2});
  const Embedding m3 = Emb({0, 1}, {3});
  const std::vector<Match> want{{m2, MatchKind::kOccurred},
                                {m2, MatchKind::kExpired},
                                {m3, MatchKind::kOccurred},
                                {m3, MatchKind::kExpired}};
  EXPECT_EQ(sink.matches(), want) << "hand-worked deferred stream drifted";

  // The independent checker mirror agrees with the hand-derivation.
  SingleQueryContext<TcmEngine> recheck(query,
                                        GraphSchema{true, ds.vertex_labels});
  EXPECT_EQ(testlib::CheckEngineAgainstOracle(ds, query, config.window,
                                              &recheck),
            2u);
}

// The absence layer's deferred state is part of the engine footprint.
// Query a -> b with n(b, a, 1, delta=10), window 100:
//
//   edge 0: v0 -> v1  label 0  ts 0    M1 pending (T=0, D=10)
//   edge 1: v2 -> v3  label 2  ts 20   flush D<20: emit +M1
//
// Edge 1 matches no query edge and no predicate label, so between the two
// arrivals only the pending completion leaves the engine's state.
TEST(PredicateFixture, PendingCompletionCountsInFootprint) {
  TemporalDataset ds;
  ds.directed = true;
  ds.vertex_labels = {0, 0, 0, 0};
  ds.edges.push_back(Packet(0, 1, 0, 0));
  ds.edges.push_back(Packet(2, 3, 2, 20));
  ds.Normalize();

  SingleQueryContext<TcmEngine> run(ReplyQuery(10),
                                    GraphSchema{true, ds.vertex_labels});
  CountingSink sink;
  run.engine().set_sink(&sink);
  run.OnEdgeArrival(ds.edges[0]);
  const size_t pending = run.engine().EstimateMemoryBytes();
  EXPECT_EQ(sink.occurred(), 0u) << "completion not deferred";
  run.OnEdgeArrival(ds.edges[1]);
  EXPECT_EQ(sink.occurred(), 1u) << "completion not resolved";
  EXPECT_GT(pending, run.engine().EstimateMemoryBytes());
}

// Gap-bound fixture: directed path a -> b -> c with g(e0, e1, 3, 5) over
// one e0 candidate (ts 10) and seven parallel e1 candidates at ts 11..17.
// Exactly the gaps 3, 4, 5 (ts 13, 14, 15) qualify. With pruning the ECM
// window [ets+3, ets+5] excludes the other four candidates *during*
// backtracking, so the explored search tree is strictly smaller than in
// post-filter mode — the acceptance criterion that order/gap pruning
// reduces explored partial embeddings, pinned on a concrete scenario.
TEST(PredicateFixture, GapPruningShrinksSearchStrictly) {
  TemporalDataset ds;
  ds.directed = true;
  ds.vertex_labels = {0, 1, 2};
  ds.edges.push_back(Packet(0, 1, 0, 10));
  for (Timestamp ts = 11; ts <= 17; ++ts) {
    ds.edges.push_back(Packet(1, 2, 0, ts));
  }
  ds.Normalize();

  QueryGraph query(/*directed=*/true);
  const VertexId a = query.AddVertex(0);
  const VertexId b = query.AddVertex(1);
  const VertexId c = query.AddVertex(2);
  const EdgeId e0 = query.AddEdge(a, b, 0);
  const EdgeId e1 = query.AddEdge(b, c, 0);
  ASSERT_TRUE(query.AddGap(e0, e1, 3, 5).ok());

  const GraphSchema schema{true, ds.vertex_labels};
  StreamConfig config;
  config.window = 100;

  SingleQueryContext<TcmEngine> pruned(query, schema);
  const StreamResult res_pruned = RunStream(ds, config, &pruned);
  ASSERT_TRUE(res_pruned.completed);
  EXPECT_EQ(res_pruned.occurred, 3u) << "gaps 3..5 admit exactly ts 13..15";
  EXPECT_EQ(res_pruned.expired, 3u);

  TcmConfig post_cfg;
  post_cfg.prune_gap_bounds = false;
  SingleQueryContext<TcmEngine> post(query, schema, post_cfg);
  const StreamResult res_post = RunStream(ds, config, &post);
  ASSERT_TRUE(res_post.completed);
  EXPECT_EQ(res_post.occurred, 3u);
  EXPECT_EQ(res_post.expired, 3u);

  EXPECT_LT(pruned.engine().counters().search_nodes,
            post.engine().counters().search_nodes)
      << "in-search gap pruning explored no fewer partial embeddings "
         "than leaf post-filtering";

  // Both modes also agree with the oracle per event.
  SingleQueryContext<TcmEngine> oracle_run(query, schema);
  EXPECT_EQ(testlib::CheckEngineAgainstOracle(ds, query, config.window,
                                              &oracle_run),
            3u);
}

}  // namespace
}  // namespace tcsm
