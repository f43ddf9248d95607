// Cross-shard candidate-pruning summaries (DESIGN.md §10). Each vertex
// has one row of direction-aware Bloom64 label signatures — the exact
// masks TemporalGraph maintains per vertex (VertexSigAny/Out/In) — and
// the row is (re)published by the vertex's OWNER shard whenever a
// mutation touches the vertex. Engines running on any shard consult the
// table through ShardedGraphView::MayHaveMatching instead of reaching
// into a remote shard's graph, so the only cross-shard state a candidate
// check ever needs is 24 bytes per vertex.
//
// Because the published rows are bit-equal to the owner graph's exact
// masks, the table inherits their guarantee:
// MayHaveMatching never returns false for a vertex that has a live
// matching entry (no false negatives), so pruning on a "no" is always
// safe and every engine verdict is identical to an unsharded run.
//
// Concurrency: rows are written only by the context's mutation hooks, on
// the driver thread between pipeline steps; engines read them during the
// notification steps. The step fences of ThreadPool::PipelineFor order
// writer-then-readers, so the fields are plain (non-atomic) by design —
// see sharded_context.h.
#ifndef TCSM_SHARD_SUMMARIES_H_
#define TCSM_SHARD_SUMMARIES_H_

#include <cstddef>
#include <vector>

#include "common/bloom.h"
#include "common/types.h"
#include "graph/temporal_graph.h"

namespace tcsm {

class ShardSummaries {
 public:
  /// One row per data vertex; rows start empty (= vertex has no live
  /// incident edges), matching an empty owner graph.
  explicit ShardSummaries(size_t num_vertices, bool directed)
      : rows_(num_vertices), directed_(directed) {}

  size_t num_vertices() const { return rows_.size(); }
  bool directed() const { return directed_; }

  /// Re-publishes v's row from the owner shard's graph. Call after every
  /// mutation of `owner_graph` that touched v, and only with v's owner
  /// (the row must copy v's complete adjacency).
  void Publish(VertexId v, const TemporalGraph& owner_graph) {
    Row& row = rows_[v];
    row.any = owner_graph.VertexSigAny(v);
    row.out = owner_graph.VertexSigOut(v);
    row.in = owner_graph.VertexSigIn(v);
  }

  /// Drop-in for TemporalGraph::MayHaveMatching answered from the
  /// published rows: false means vertex v provably has no live incident
  /// edge with this (edge label, neighbor label) signature in the wanted
  /// direction anywhere in the sharded graph.
  bool MayHaveMatching(VertexId v, Label elabel, Label nbr_label,
                       bool want_out) const {
    const Row& row = rows_[v];
    const Bloom64& sig =
        !directed_ ? row.any : (want_out ? row.out : row.in);
    return sig.MayContain(PackPair(elabel, nbr_label));
  }

  size_t EstimateMemoryBytes() const { return rows_.capacity() * sizeof(Row); }

 private:
  struct Row {
    Bloom64 any;
    Bloom64 out;
    Bloom64 in;
  };

  std::vector<Row> rows_;
  bool directed_;
};

}  // namespace tcsm

#endif  // TCSM_SHARD_SUMMARIES_H_
