#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "graph/temporal_graph.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

/// Flattens one (elabel, nbr_label) bucket into a vector for assertions.
std::vector<AdjEntry> Bucket(const TemporalGraph& g, VertexId v, Label elabel,
                             Label nbr_label) {
  std::vector<AdjEntry> out;
  for (const AdjEntry& a : g.NeighborsMatching(v, elabel, nbr_label)) {
    out.push_back(a);
  }
  return out;
}

/// Flattens all buckets of v (ForEachNeighbor order).
std::vector<AdjEntry> AllNeighbors(const TemporalGraph& g, VertexId v) {
  std::vector<AdjEntry> out;
  g.ForEachNeighbor(v, [&](const AdjEntry& a) { out.push_back(a); });
  return out;
}

TEST(TemporalGraph, InsertAndAdjacency) {
  TemporalGraph g;
  const VertexId a = g.AddVertex(0);
  const VertexId b = g.AddVertex(1);
  const VertexId c = g.AddVertex(0);
  const EdgeId e0 = g.InsertEdge(a, b, 1, 7);
  const EdgeId e1 = g.InsertEdge(b, c, 2);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumAliveEdges(), 2u);
  EXPECT_EQ(g.Edge(e0).label, 7u);
  EXPECT_EQ(g.Degree(b), 2u);
  // b's two edges carry different labels, hence distinct buckets.
  const auto b0 = Bucket(g, b, 7, 0);
  ASSERT_EQ(b0.size(), 1u);
  EXPECT_EQ(b0[0].nbr, a);
  EXPECT_EQ(b0[0].edge, e0);
  EXPECT_FALSE(b0[0].out);  // edge a->b enters b
  const auto b1 = Bucket(g, b, 0, 0);
  ASSERT_EQ(b1.size(), 1u);
  EXPECT_EQ(b1[0].edge, e1);
  EXPECT_TRUE(b1[0].out);
  EXPECT_EQ(AllNeighbors(g, b).size(), 2u);
}

TEST(TemporalGraph, BucketsPartitionBySignature) {
  TemporalGraph g;
  const VertexId a = g.AddVertex(0);
  const VertexId b = g.AddVertex(1);
  const VertexId c = g.AddVertex(2);
  g.InsertEdge(a, b, 1, 5);
  g.InsertEdge(a, c, 2, 5);
  g.InsertEdge(a, b, 3, 6);
  // Same edge label, different neighbor labels: separate buckets.
  EXPECT_EQ(Bucket(g, a, 5, 1).size(), 1u);
  EXPECT_EQ(Bucket(g, a, 5, 2).size(), 1u);
  EXPECT_EQ(Bucket(g, a, 6, 1).size(), 1u);
  EXPECT_TRUE(Bucket(g, a, 6, 2).empty());
  EXPECT_TRUE(Bucket(g, a, 7, 1).empty());
  EXPECT_EQ(g.Degree(a), 3u);
  EXPECT_EQ(AllNeighbors(g, a).size(), 3u);
}

TEST(TemporalGraph, ParallelEdgesKeepChronologicalOrderInBucket) {
  TemporalGraph g;
  const VertexId a = g.AddVertex(0);
  g.AddVertex(0);
  for (Timestamp t = 1; t <= 5; ++t) g.InsertEdge(a, 1, t);
  ASSERT_EQ(g.Degree(a), 5u);
  const auto bucket = Bucket(g, a, 0, 0);
  ASSERT_EQ(bucket.size(), 5u);
  for (size_t i = 0; i + 1 < bucket.size(); ++i) {
    EXPECT_LT(bucket[i].ts, bucket[i + 1].ts);
  }
}

TEST(TemporalGraph, FifoRemoval) {
  TemporalGraph g;
  const VertexId a = g.AddVertex(0);
  const VertexId b = g.AddVertex(0);
  std::vector<EdgeId> ids;
  for (Timestamp t = 1; t <= 4; ++t) ids.push_back(g.InsertEdge(a, b, t));
  g.RemoveEdge(ids[0]);
  EXPECT_FALSE(g.Alive(ids[0]));
  EXPECT_EQ(g.NumAliveEdges(), 3u);
  const auto bucket = Bucket(g, a, 0, 0);
  ASSERT_EQ(bucket.size(), 3u);
  EXPECT_EQ(bucket.front().edge, ids[1]);
  EXPECT_EQ(Bucket(g, b, 0, 0).front().edge, ids[1]);
}

TEST(TemporalGraph, OutOfOrderRemovalPreservesBucketOrder) {
  TemporalGraph g;
  const VertexId a = g.AddVertex(0);
  const VertexId b = g.AddVertex(0);
  const VertexId c = g.AddVertex(0);
  const EdgeId e0 = g.InsertEdge(a, b, 1);
  const EdgeId e1 = g.InsertEdge(a, c, 2);
  const EdgeId e2 = g.InsertEdge(a, b, 3);
  g.RemoveEdge(e1);  // middle of a's adjacency — O(1), no scan fallback
  EXPECT_EQ(g.Degree(a), 2u);
  const auto bucket = Bucket(g, a, 0, 0);
  ASSERT_EQ(bucket.size(), 2u);
  EXPECT_EQ(bucket[0].edge, e0);
  EXPECT_EQ(bucket[1].edge, e2);
  EXPECT_EQ(g.Degree(c), 0u);
}

TEST(TemporalGraph, DirectedFlagsOnEntries) {
  TemporalGraph g(/*directed=*/true);
  const VertexId a = g.AddVertex(0);
  const VertexId b = g.AddVertex(0);
  g.InsertEdge(a, b, 1);
  EXPECT_TRUE(g.directed());
  EXPECT_TRUE(Bucket(g, a, 0, 0)[0].out);
  EXPECT_FALSE(Bucket(g, b, 0, 0)[0].out);
}

TEST(TemporalGraph, SlotsAreRecycledUnderChurn) {
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  // Window of 4 live edges, churned for 100 arrivals: the slot pool must
  // stay at the high-water window size (+1 pending tombstone), while
  // external ids keep growing.
  std::vector<EdgeId> live;
  for (Timestamp t = 1; t <= 100; ++t) {
    live.push_back(g.InsertEdge(0, 1, t));
    if (live.size() > 4) {
      g.RemoveEdge(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(g.NumAliveEdges(), 4u);
  EXPECT_EQ(g.NumEdgesEver(), 100u);
  EXPECT_LE(g.NumSlots(), 6u);
  EXPECT_LE(g.IdSpan(), 6u);
  // The live window is still fully readable with its original ids.
  for (const EdgeId id : live) {
    EXPECT_TRUE(g.Alive(id));
    EXPECT_EQ(g.Edge(id).id, id);
  }
  // Long-expired ids resolve to "not alive", never to a recycled edge.
  EXPECT_FALSE(g.Alive(0));
  EXPECT_FALSE(g.Alive(50));
}

TEST(TemporalGraph, RemovedEdgeStaysReadableUntilNextInsert) {
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  const EdgeId e0 = g.InsertEdge(0, 1, 1);
  const EdgeId e1 = g.InsertEdge(0, 1, 2);
  g.RemoveEdge(e0);
  // Deferred reclamation: the tombstone record is intact (the shared
  // context's NotifyRemoved phase reads it).
  EXPECT_FALSE(g.Alive(e0));
  EXPECT_EQ(g.Edge(e0).ts, 1);
  EXPECT_EQ(g.Edge(e0).id, e0);
  EXPECT_TRUE(g.Alive(e1));
  g.InsertEdge(0, 1, 3);  // reclaims e0's slot
  EXPECT_FALSE(g.Alive(e0));
}

TEST(TemporalGraph, InsertEdgeAsSkippedIdsActReclaimed) {
  // A shard holding every other edge of a global stream: the skipped ids
  // must behave exactly like expired-and-reclaimed ids.
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  const EdgeId e0 = g.InsertEdgeAs(0, 0, 1, 1);
  const EdgeId e4 = g.InsertEdgeAs(4, 0, 1, 2);
  EXPECT_EQ(e0, 0u);
  EXPECT_EQ(e4, 4u);
  EXPECT_EQ(g.NumEdgesEver(), 5u);
  EXPECT_EQ(g.NumAliveEdges(), 2u);
  EXPECT_TRUE(g.Alive(e0));
  EXPECT_TRUE(g.Alive(e4));
  for (const EdgeId hole : {1u, 2u, 3u}) EXPECT_FALSE(g.Alive(hole));
  EXPECT_EQ(g.Edge(e4).ts, 2);
  // Plain InsertEdge continues the same id sequence after the subset.
  EXPECT_EQ(g.InsertEdge(0, 1, 3), 5u);
}

TEST(TemporalGraph, InsertEdgeAsIdSpanBoundedUnderChurn) {
  // FIFO churn over a sparse subset (1 of every 4 global ids): the holes
  // must slide out of the id ring with the expiries, keeping the span
  // O(window) rather than O(skipped stream).
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  std::vector<EdgeId> live;
  for (Timestamp t = 1; t <= 100; ++t) {
    live.push_back(g.InsertEdgeAs(static_cast<EdgeId>(4 * t), 0, 1, t));
    if (live.size() > 4) {
      g.RemoveEdge(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(g.NumAliveEdges(), 4u);
  EXPECT_LE(g.NumSlots(), 6u);
  EXPECT_LE(g.IdSpan(), 4u * 6u);
  for (const EdgeId id : live) {
    EXPECT_TRUE(g.Alive(id));
    EXPECT_EQ(g.Edge(id).id, id);
  }
}

TEST(TemporalGraph, EdgeNearAndAliveEdgeMatchPlainReads) {
  TemporalGraph g;
  const VertexId a = g.AddVertex(0);
  const VertexId b = g.AddVertex(0);
  const EdgeId e0 = g.InsertEdge(a, b, 1);
  EXPECT_EQ(&g.EdgeNear(a, e0), &g.Edge(e0));
  EXPECT_TRUE(g.AliveEdge(g.Edge(e0)));
  const TemporalEdge copy = g.Edge(e0);
  g.RemoveEdge(e0);
  EXPECT_FALSE(g.AliveEdge(copy));
}

TEST(TemporalGraph, VertexSigAccessorsMirrorMayHaveMatching) {
  TemporalGraph g(/*directed=*/true);
  const VertexId a = g.AddVertex(0);
  const VertexId b = g.AddVertex(1);
  g.InsertEdge(a, b, 1, 7);
  EXPECT_TRUE(g.VertexSigOut(a).MayContain(PackPair(7, 1)));
  EXPECT_TRUE(g.VertexSigIn(b).MayContain(PackPair(7, 0)));
  EXPECT_EQ(g.VertexSigAny(a).MayContain(PackPair(7, 1)),
            g.MayHaveMatching(a, 7, 1, /*want_out=*/true));
  EXPECT_FALSE(g.VertexSigIn(a).MayContain(PackPair(7, 1)));
  EXPECT_FALSE(g.MayHaveMatching(a, 7, 1, /*want_out=*/false));
}

TEST(TemporalGraph, BloomMasksCoverEveryLiveEntryUnderChurn) {
  // MayHaveMatching gates every bucket scan of the TCM filter and DCS
  // rescan, so a false negative would silently drop matches. Random
  // insert/remove churn (removals in any order, so buckets empty and the
  // masks are re-derived) must keep every live entry covered, in the
  // entry's own direction.
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    TemporalGraph g(directed);
    constexpr size_t kVertices = 12;
    for (size_t v = 0; v < kVertices; ++v) g.AddVertex(v % 3);
    Rng rng(directed ? 7 : 8);
    std::vector<EdgeId> live;
    for (Timestamp t = 1; t <= 400; ++t) {
      if (live.empty() || rng.NextBool(0.55)) {
        const auto src = static_cast<VertexId>(rng.NextBounded(kVertices));
        auto dst = static_cast<VertexId>(rng.NextBounded(kVertices - 1));
        if (dst >= src) ++dst;
        live.push_back(g.InsertEdge(src, dst, t,
                                    static_cast<Label>(rng.NextBounded(3))));
      } else {
        const size_t i = rng.NextBounded(live.size());
        g.RemoveEdge(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
      for (VertexId v = 0; v < kVertices; ++v) {
        g.ForEachNeighbor(v, [&](const AdjEntry& a) {
          EXPECT_TRUE(g.MayHaveMatching(v, a.elabel, g.VertexLabel(a.nbr),
                                        a.out))
              << "t=" << t << " v=" << v << " edge=" << a.edge;
        });
      }
      if (HasFailure()) return;
    }
    // Once every edge is gone the re-derived masks are empty again.
    for (const EdgeId id : live) g.RemoveEdge(id);
    for (VertexId v = 0; v < kVertices; ++v) {
      for (Label el = 0; el < 3; ++el) {
        for (Label nl = 0; nl < 3; ++nl) {
          EXPECT_FALSE(g.MayHaveMatching(v, el, nl, /*want_out=*/true));
          EXPECT_FALSE(g.MayHaveMatching(v, el, nl, /*want_out=*/false));
        }
      }
    }
  }
}

TEST(TemporalGraph, MemoryEstimateGrowsWithEdges) {
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  const size_t empty = g.EstimateMemoryBytes();
  for (Timestamp t = 1; t <= 100; ++t) g.InsertEdge(0, 1, t);
  EXPECT_GT(g.EstimateMemoryBytes(), empty);
}

TEST(TemporalGraph, MemoryEstimateBoundedUnderChurn) {
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  // Fill a window of 8, then churn 10x as many arrivals through it: the
  // footprint must not grow with the stream length.
  std::vector<EdgeId> live;
  Timestamp t = 1;
  for (; t <= 8; ++t) live.push_back(g.InsertEdge(0, 1, t));
  const size_t at_window = g.EstimateMemoryBytes();
  for (; t <= 88; ++t) {
    live.push_back(g.InsertEdge(0, 1, t));
    g.RemoveEdge(live.front());
    live.erase(live.begin());
  }
  EXPECT_LE(g.EstimateMemoryBytes(), at_window * 2);
}

TEST(TemporalGraph, ForEachLiveEdgeAscendingIdOrder) {
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(0);
  const EdgeId e0 = g.InsertEdge(0, 1, 1);
  const EdgeId e1 = g.InsertEdge(1, 2, 2);
  const EdgeId e2 = g.InsertEdge(0, 2, 3);
  g.RemoveEdge(e1);
  std::vector<EdgeId> seen;
  g.ForEachLiveEdge([&](const TemporalEdge& e) { seen.push_back(e.id); });
  EXPECT_EQ(seen, (std::vector<EdgeId>{e0, e2}));
}

TEST(TemporalDataset, StatsMatchRunningExample) {
  const TemporalDataset ds = testlib::RunningExampleDataset();
  const DatasetStats s = ds.ComputeStats();
  EXPECT_EQ(s.num_vertices, 7u);
  EXPECT_EQ(s.num_edges, 14u);
  EXPECT_EQ(s.num_edge_labels, 1u);
  // 6 distinct adjacent pairs: (v1,v2),(v4,v5),(v1,v4),(v4,v7),(v5,v7),(v2,v5)
  EXPECT_NEAR(s.avg_parallel_edges, 14.0 / 6.0, 1e-9);
  EXPECT_EQ(s.min_ts, 1);
  EXPECT_EQ(s.max_ts, 14);
  EXPECT_NEAR(s.window_unit, 1.0, 1e-9);
}

TEST(TemporalDataset, RankTimestampsProducesDenseRanks) {
  TemporalDataset ds;
  ds.vertex_labels = {0, 0};
  for (const Timestamp t : {100, 7, 55, 7}) {
    TemporalEdge e;
    e.src = 0;
    e.dst = 1;
    e.ts = t;
    ds.edges.push_back(e);
  }
  ds.RankTimestamps();
  ASSERT_EQ(ds.edges.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ds.edges[i].ts, static_cast<Timestamp>(i + 1));
    EXPECT_EQ(ds.edges[i].id, i);
  }
}

}  // namespace
}  // namespace tcsm
