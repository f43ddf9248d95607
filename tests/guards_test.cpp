// Misuse guards: the library CHECK-fails loudly on contract violations
// instead of corrupting state.
#include <gtest/gtest.h>

#include "core/tcm_engine.h"
#include "dag/query_dag.h"
#include "dcs/dcs_index.h"
#include "graph/temporal_graph.h"
#include "query/query_graph.h"
#include "testlib/running_example.h"
#include "testlib/stream_checker.h"

namespace tcsm {
namespace {

TEST(Guards, SelfLoopsRejected) {
  TemporalGraph g;
  g.AddVertex(0);
  EXPECT_DEATH(g.InsertEdge(0, 0, 1), "self loops");
}

TEST(Guards, QuerySelfLoopRejected) {
  QueryGraph q;
  q.AddVertex(0);
  EXPECT_DEATH(q.AddEdge(0, 0), "self loops");
}

TEST(Guards, ParallelUndirectedQueryEdgesRejected) {
  QueryGraph q;
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddEdge(0, 1);
  EXPECT_DEATH(q.AddEdge(1, 0), "parallel");
}

TEST(Guards, RemoveDeadEdgeRejected) {
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  const EdgeId e = g.InsertEdge(0, 1, 1);
  g.RemoveEdge(e);
  EXPECT_DEATH(g.RemoveEdge(e), "");
}

TEST(Guards, DuplicateDcsInsertRejected) {
  // Membership lives only in the sorted parallel lists, so a second insert
  // of the same (qe, edge, flip) must be caught there.
  const QueryGraph q = testlib::RunningExampleQuery();
  const QueryDag dag = QueryDag::BuildBestDag(q);
  DcsIndex dcs(&q, &dag);
  TemporalEdge ed;
  ed.id = 0;
  ed.src = testlib::kV1;
  ed.dst = testlib::kV2;
  ed.ts = 1;
  dcs.Insert(testlib::kE1, ed, false);
  EXPECT_DEATH(dcs.Insert(testlib::kE1, ed, false),
               "duplicate DCS edge insert");
}

TEST(Guards, ContextRequiresAscendingArrivalIds) {
  SharedStreamContext ctx(testlib::RunningExampleSchema());
  TemporalEdge e;
  // A seeked replay may start mid-stream, so a non-zero first id is
  // legal (the skipped ids become permanent holes) — but ids must keep
  // ascending from there.
  e.id = 5;
  e.src = testlib::kV1;
  e.dst = testlib::kV2;
  e.ts = 1;
  ctx.OnEdgeArrival(e);
  TemporalEdge stale = e;
  stale.id = 3;
  stale.ts = 2;
  EXPECT_DEATH(ctx.OnEdgeArrival(stale), "ascending");
}

TEST(Guards, EngineRejectsDisconnectedQuery) {
  QueryGraph q;
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddEdge(0, 1);
  q.AddEdge(2, 3);
  SharedStreamContext ctx(testlib::RunningExampleSchema());
  EXPECT_DEATH(TcmEngine(q, ctx.graph()), "connected");
}

TEST(Guards, EngineRejectsDirectednessMismatch) {
  QueryGraph q(/*directed=*/true);
  q.AddVertex(0);
  q.AddVertex(1);
  q.AddEdge(0, 1);
  SharedStreamContext ctx(testlib::RunningExampleSchema());  // undirected
  EXPECT_DEATH(TcmEngine(q, ctx.graph()), "directed");
}

// Star pattern with symmetric branches (the DDoS shape): engines report
// one embedding per zombie assignment — mappings, not pattern instances —
// exactly like the oracle.
TEST(StarPattern, SymmetricBranchesCountMappings) {
  QueryGraph q(/*directed=*/true);
  const VertexId attacker = q.AddVertex(0);
  const VertexId victim = q.AddVertex(0);
  const VertexId z1 = q.AddVertex(0);
  const VertexId z2 = q.AddVertex(0);
  const EdgeId c1 = q.AddEdge(attacker, z1);
  const EdgeId a1 = q.AddEdge(z1, victim);
  const EdgeId c2 = q.AddEdge(attacker, z2);
  const EdgeId a2 = q.AddEdge(z2, victim);
  ASSERT_TRUE(q.AddOrder(c1, a1).ok());
  ASSERT_TRUE(q.AddOrder(c2, a2).ok());

  TemporalDataset ds;
  ds.directed = true;
  ds.vertex_labels.assign(6, 0);
  auto add = [&](VertexId s, VertexId d, Timestamp t) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(ds.edges.size());
    e.src = s;
    e.dst = d;
    e.ts = t;
    ds.edges.push_back(e);
  };
  // attacker 0, zombies 2 and 3, victim 1.
  add(0, 2, 1);
  add(0, 3, 2);
  add(2, 1, 3);
  add(3, 1, 4);

  SingleQueryContext<TcmEngine> run(q, GraphSchema{true, ds.vertex_labels});
  const uint64_t occurred =
      testlib::CheckEngineAgainstOracle(ds, q, 100, &run);
  // Two zombie assignments (z1,z2) -> (2,3) or (3,2).
  EXPECT_EQ(occurred, 2u);
}

}  // namespace
}  // namespace tcsm
