#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "dag/query_dag.h"
#include "dcs/dcs_index.h"
#include "filter/maxmin_index.h"
#include "graph/temporal_graph.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

/// Reference D1/D2 computed from scratch by the recursive definitions over
/// the DCS edge set.
struct DcsOracle {
  const QueryGraph* q;
  const QueryDag* dag;
  const DcsIndex* dcs;
  const TemporalGraph* g;

  bool EdgeBetween(EdgeId qe, VertexId img_u, VertexId img_v) const {
    const auto* plist = dcs->Parallel(qe, img_u, img_v);
    return plist != nullptr && !plist->empty();
  }

  bool D1(VertexId u, VertexId v) const {
    if (q->VertexLabel(u) != g->VertexLabel(v)) return false;
    for (const EdgeId pe : dag->ParentEdges(u)) {
      const VertexId up = dag->ParentOf(pe);
      const QueryEdge& e = q->Edge(pe);
      bool supported = false;
      for (VertexId vp = 0; vp < g->NumVertices() && !supported; ++vp) {
        const VertexId img_u = (e.u == up) ? vp : v;
        const VertexId img_v = (e.u == up) ? v : vp;
        supported = D1(up, vp) && EdgeBetween(pe, img_u, img_v);
      }
      if (!supported) return false;
    }
    return true;
  }

  bool D2(VertexId u, VertexId v) const {
    if (!D1(u, v)) return false;
    for (const EdgeId ce : dag->ChildEdges(u)) {
      const VertexId uc = dag->ChildOf(ce);
      const QueryEdge& e = q->Edge(ce);
      bool supported = false;
      for (VertexId vc = 0; vc < g->NumVertices() && !supported; ++vc) {
        const VertexId img_u = (e.u == u) ? v : vc;
        const VertexId img_v = (e.u == u) ? vc : v;
        supported = D2(uc, vc) && EdgeBetween(ce, img_u, img_v);
      }
      if (!supported) return false;
    }
    return true;
  }
};

TEST(DcsIndex, InsertRemoveRoundTrip) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const QueryDag dag = QueryDag::BuildDagGreedy(q, testlib::kU1);
  DcsIndex dcs(&q, &dag);

  TemporalEdge ed;
  ed.id = 0;
  ed.src = testlib::kV1;
  ed.dst = testlib::kV2;
  ed.ts = 1;
  EXPECT_FALSE(dcs.Contains(testlib::kE1, ed, false));
  dcs.Insert(testlib::kE1, ed, false);
  EXPECT_TRUE(dcs.Contains(testlib::kE1, ed, false));
  EXPECT_FALSE(dcs.Contains(testlib::kE1, ed, true));
  EXPECT_EQ(dcs.stats().num_edges, 1u);
  const auto* plist = dcs.Parallel(testlib::kE1, testlib::kV1, testlib::kV2);
  ASSERT_NE(plist, nullptr);
  EXPECT_EQ(plist->size(), 1u);
  dcs.Remove(testlib::kE1, ed, false);
  EXPECT_FALSE(dcs.Contains(testlib::kE1, ed, false));
  EXPECT_EQ(dcs.stats().num_edges, 0u);
  EXPECT_EQ(dcs.Parallel(testlib::kE1, testlib::kV1, testlib::kV2), nullptr);
}

TEST(DcsIndex, ParallelListStaysSorted) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const QueryDag dag = QueryDag::BuildDagGreedy(q, testlib::kU1);
  DcsIndex dcs(&q, &dag);
  const Timestamp ts[] = {5, 1, 9, 3, 7};
  for (size_t i = 0; i < 5; ++i) {
    TemporalEdge ed;
    ed.id = static_cast<EdgeId>(i);
    ed.src = testlib::kV1;
    ed.dst = testlib::kV2;
    ed.ts = ts[i];
    dcs.Insert(testlib::kE1, ed, false);
  }
  const auto* plist = dcs.Parallel(testlib::kE1, testlib::kV1, testlib::kV2);
  ASSERT_NE(plist, nullptr);
  ASSERT_EQ(plist->size(), 5u);
  for (size_t i = 0; i + 1 < plist->size(); ++i) {
    EXPECT_LT((*plist)[i].ts, (*plist)[i + 1].ts);
  }
}

/// Builds a DCS holding every statically feasible pair of the graph (the
/// SymBi baseline configuration).
void FillStatic(const QueryGraph& q, const TemporalGraph& g,
                DcsIndex* dcs) {
  for (EdgeId id = 0; id < g.NumEdgesEver(); ++id) {
    if (!g.Alive(id)) continue;
    for (EdgeId qe = 0; qe < q.NumEdges(); ++qe) {
      for (const bool flip : {false, true}) {
        if (StaticFeasible(q, g, qe, g.Edge(id), flip)) {
          dcs->Insert(qe, g.Edge(id), flip);
        }
      }
    }
  }
}

TEST(DcsIndex, D1D2MatchOracleOnRunningExample) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const QueryDag dag = QueryDag::BuildDagGreedy(q, testlib::kU1);
  TemporalGraph g = testlib::RunningExampleGraph(14);
  DcsIndex dcs(&q, &dag);
  FillStatic(q, g, &dcs);

  const DcsOracle oracle{&q, &dag, &dcs, &g};
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(dcs.D1(u, v), oracle.D1(u, v)) << "u=" << u << " v=" << v;
      EXPECT_EQ(dcs.D2(u, v), oracle.D2(u, v)) << "u=" << u << " v=" << v;
    }
  }
  // Spot checks: the witness embedding vertices are all D2.
  EXPECT_TRUE(dcs.D2(testlib::kU1, testlib::kV1));
  EXPECT_TRUE(dcs.D2(testlib::kU3, testlib::kV4));
  EXPECT_TRUE(dcs.D2(testlib::kU5, testlib::kV7));
  // Wrong label is never a candidate.
  EXPECT_FALSE(dcs.D2(testlib::kU1, testlib::kV2));
}

TEST(DcsIndex, CandidatesMapsReflectEdges) {
  const QueryGraph q = testlib::RunningExampleQuery();
  const QueryDag dag = QueryDag::BuildDagGreedy(q, testlib::kU1);
  TemporalGraph g = testlib::RunningExampleGraph(14);
  DcsIndex dcs(&q, &dag);
  FillStatic(q, g, &dcs);

  // From (u3, v4) along eps4 (u3 -> u4): candidates are v5 (3 parallel
  // edges: sigma2, sigma3, sigma13).
  const auto* cands = dcs.Candidates(testlib::kE4, testlib::kU3, testlib::kV4);
  ASSERT_NE(cands, nullptr);
  ASSERT_EQ(cands->size(), 1u);
  EXPECT_EQ(cands->begin()->first, testlib::kV5);
  EXPECT_EQ(cands->begin()->second, 3u);
  // Upward: from (u4, v5) along eps4 toward u3.
  const auto* up = dcs.Candidates(testlib::kE4, testlib::kU4, testlib::kV5);
  ASSERT_NE(up, nullptr);
  EXPECT_EQ(up->count(testlib::kV4), 1u);
}

struct DcsPropertyCase {
  uint64_t seed;
};

class DcsProperty : public ::testing::TestWithParam<DcsPropertyCase> {};

// Random insert/remove sequences: incremental D1/D2 equal a from-scratch
// rebuild after every step.
TEST_P(DcsProperty, IncrementalEqualsRebuild) {
  Rng rng(GetParam().seed);
  const QueryGraph q = testlib::RunningExampleQuery();
  const QueryDag dag = QueryDag::BuildBestDag(q);

  TemporalGraph g;
  const size_t nv = 8;
  for (size_t i = 0; i < nv; ++i) {
    g.AddVertex(static_cast<Label>(rng.NextBounded(5)));
  }
  DcsIndex inc(&q, &dag);

  struct Triple {
    EdgeId qe;
    EdgeId id;
    bool flip;
  };
  std::vector<Triple> present;
  std::vector<Triple> removed;
  std::vector<TemporalEdge> edges;

  for (int step = 0; step < 120; ++step) {
    const bool remove = !present.empty() && rng.NextBool(0.4);
    if (remove) {
      const size_t k = rng.NextBounded(present.size());
      const Triple t = present[k];
      present[k] = present.back();
      present.pop_back();
      inc.Remove(t.qe, edges[t.id], t.flip);
      removed.push_back(t);
    } else {
      // New data edge with a random feasible (qe, flip).
      const VertexId a = static_cast<VertexId>(rng.NextBounded(nv));
      VertexId b = static_cast<VertexId>(rng.NextBounded(nv));
      if (a == b) b = (b + 1) % nv;
      TemporalEdge ed;
      ed.id = static_cast<EdgeId>(edges.size());
      ed.src = a;
      ed.dst = b;
      ed.ts = step + 1;
      edges.push_back(ed);
      bool inserted = false;
      for (EdgeId qe = 0; qe < q.NumEdges() && !inserted; ++qe) {
        for (const bool flip : {false, true}) {
          if (StaticFeasible(q, g, qe, ed, flip)) {
            inc.Insert(qe, ed, flip);
            present.push_back(Triple{qe, ed.id, flip});
            inserted = true;
            break;
          }
        }
      }
      if (!inserted) edges.pop_back();
    }
    if (step % 10 != 9) continue;
    inc.ValidateInvariantsForTest();
    // Membership is read off the parallel lists: every present triple is
    // found, and no removed one (ids are never reused here).
    for (const Triple& t : present) {
      ASSERT_TRUE(inc.Contains(t.qe, edges[t.id], t.flip))
          << "step=" << step << " edge=" << t.id;
    }
    for (const Triple& t : removed) {
      ASSERT_FALSE(inc.Contains(t.qe, edges[t.id], t.flip))
          << "step=" << step << " edge=" << t.id;
    }
    // Rebuild from scratch and compare.
    DcsIndex fresh(&q, &dag);
    for (const Triple& t : present) fresh.Insert(t.qe, edges[t.id], t.flip);
    EXPECT_EQ(inc.stats().num_edges, fresh.stats().num_edges);
    // The footprint prices content, not history: a DCS that grew and
    // shrank reports what a rebuild of its surviving edges reports.
    EXPECT_EQ(inc.EstimateMemoryBytes(), fresh.EstimateMemoryBytes())
        << "step=" << step;
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      for (VertexId v = 0; v < nv; ++v) {
        ASSERT_EQ(inc.D1(u, v), fresh.D1(u, v))
            << "step=" << step << " u=" << u << " v=" << v;
        ASSERT_EQ(inc.D2(u, v), fresh.D2(u, v))
            << "step=" << step << " u=" << u << " v=" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcsProperty,
                         ::testing::Values(DcsPropertyCase{11},
                                           DcsPropertyCase{12},
                                           DcsPropertyCase{13},
                                           DcsPropertyCase{14},
                                           DcsPropertyCase{15},
                                           DcsPropertyCase{16}));

}  // namespace
}  // namespace tcsm
