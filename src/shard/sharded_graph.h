// Read-only view presenting S per-shard TemporalGraphs as one logical
// sliding-window graph (DESIGN.md §10). This is the GraphT a
// BasicTcmEngine/BasicMaxMinIndex instantiation binds to in a sharded
// context: every per-vertex read routes to the shard OWNING that vertex,
// which — by the mirroring invariant (an edge is stored by the owners of
// BOTH endpoints) — holds the vertex's complete live adjacency in global
// arrival order. Candidate pre-filtering goes through the published
// ShardSummaries rows instead of a remote graph; the matching code is
// untouched.
//
// Determinism: because an owner shard sees exactly the incident edges of
// its vertices, in exactly the global event order, its buckets, bucket
// creation order, and signature masks for an owned vertex are
// bit-identical to the single canonical graph's. Every read below
// therefore returns the same values an unsharded run would see — which
// is what makes sharded engine execution (results AND scan counters)
// byte-identical to serial.
#ifndef TCSM_SHARD_SHARDED_GRAPH_H_
#define TCSM_SHARD_SHARDED_GRAPH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"
#include "graph/temporal_graph.h"
#include "shard/partitioner.h"
#include "shard/summaries.h"

namespace tcsm {

class ShardedGraphView {
 public:
  /// All pointers are borrowed from the owning ShardedStreamContext and
  /// must outlive the view; `shards[s]` is the graph of shard s.
  ShardedGraphView(const VertexPartitioner* partitioner,
                   std::vector<const TemporalGraph*> shards,
                   const ShardSummaries* summaries)
      : partitioner_(partitioner),
        shards_(std::move(shards)),
        summaries_(summaries) {
    TCSM_CHECK(!shards_.empty());
    TCSM_CHECK(shards_.size() == partitioner_->num_shards());
  }

  size_t num_shards() const { return shards_.size(); }
  bool directed() const { return shards_[0]->directed(); }
  size_t NumVertices() const { return shards_[0]->NumVertices(); }

  /// The static vertex labels are replicated to every shard graph at
  /// construction; no routing needed.
  Label VertexLabel(VertexId v) const { return shards_[0]->VertexLabel(v); }

  /// Candidate pre-filter, answered from the published summary rows (the
  /// only cross-shard state on this path). Same one-sided guarantee as
  /// TemporalGraph::MayHaveMatching: a false is always safe to act on.
  bool MayHaveMatching(VertexId v, Label elabel, Label nbr_label,
                       bool want_out) const {
    return summaries_->MayHaveMatching(v, elabel, nbr_label, want_out);
  }

  /// v's live incident edges with this signature — complete, because the
  /// owner mirrors every incident edge regardless of the other
  /// endpoint's shard.
  TemporalGraph::NeighborRange NeighborsMatching(VertexId v, Label elabel,
                                                 Label nbr_label) const {
    return OwnerGraph(v).NeighborsMatching(v, elabel, nbr_label);
  }

  /// Edge record lookup during a scan anchored at v: the owner of v
  /// stores every edge incident to v, so the read stays on v's shard.
  const TemporalEdge& EdgeNear(VertexId v, EdgeId id) const {
    return OwnerGraph(v).Edge(id);
  }

  /// Liveness of an edge whose record the caller already holds: route by
  /// an endpoint (the src owner always stores the edge). Mirrors are
  /// removed by the same mutation hook, so either endpoint answers alike.
  bool AliveEdge(const TemporalEdge& e) const {
    return OwnerGraph(e.src).Alive(e.id);
  }

  const TemporalGraph& shard(size_t s) const { return *shards_[s]; }
  const VertexPartitioner& partitioner() const { return *partitioner_; }

 private:
  const TemporalGraph& OwnerGraph(VertexId v) const {
    return *shards_[partitioner_->Owner(v)];
  }

  const VertexPartitioner* partitioner_;
  std::vector<const TemporalGraph*> shards_;
  const ShardSummaries* summaries_;
};

}  // namespace tcsm

#endif  // TCSM_SHARD_SHARDED_GRAPH_H_
