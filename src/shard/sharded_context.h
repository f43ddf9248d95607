// Vertex-partitioned sharded stream context (DESIGN.md §10): a storage
// layout, not a second execution model. The data graph is split across S
// shards by vertex ownership instead of being one canonical TemporalGraph.
// Each shard owns the vertices the VertexPartitioner maps to it and
// stores every live edge with a locally owned endpoint (cross-shard edges
// are mirrored to BOTH endpoint owners, so an owner always holds an owned
// vertex's complete adjacency). Edge ids stay the GLOBAL dense arrival
// indices — shard graphs use TemporalGraph::InsertEdgeAs, so EdgeId-keyed
// engine state is identical to an unsharded run and the slot pools stay
// O(window). Engines bind to the ShardedGraphView, which routes
// vertex-rooted reads to the owner shard and answers remote existence
// probes from the ShardSummaries rows.
//
// Execution is ParallelStreamContext's pipeline, unchanged: one lane per
// engine, one step per arrival and two per expiry, buffers drained in
// attach order. This class only overrides the graph-mutation hooks; each
// writes the edge's (at most two) owner shards and republishes their
// summary rows, on the driver thread in the pipeline's settle hook, so no
// engine reads while storage changes. The match stream — per query and
// globally — is therefore byte-identical to serial execution at every
// shard x thread count and for any attach order.
#ifndef TCSM_SHARD_SHARDED_CONTEXT_H_
#define TCSM_SHARD_SHARDED_CONTEXT_H_

#include <memory>
#include <vector>

#include "exec/parallel_context.h"
#include "shard/partitioner.h"
#include "shard/sharded_graph.h"
#include "shard/summaries.h"

namespace tcsm {

class ShardedStreamContext : public ParallelStreamContext {
 public:
  /// Partitions the schema's vertex set across `num_shards` with a
  /// HashVertexPartitioner. `num_threads` is the pool width of the
  /// engine fan-out (including the driver thread); 0 means as many
  /// threads as shards. With 1 thread the serial base loops run
  /// unchanged.
  ShardedStreamContext(const GraphSchema& schema, size_t num_shards,
                       size_t num_threads = 0);

  size_t num_shards() const override { return graphs_.size(); }

  /// The logical graph engines bind to (ShardedTcmEngine's GraphT).
  const ShardedGraphView& view() const { return *view_; }
  const VertexPartitioner& partitioner() const { return *partitioner_; }
  const ShardSummaries& summaries() const { return summaries_; }
  /// Shard s's local graph (tests and memory accounting).
  const TemporalGraph& shard_graph(size_t s) const { return *graphs_[s]; }

  /// Attach with a checked shard id. Engines are not placed on shards —
  /// every engine reads every shard through view() — so this is Attach
  /// after checking `shard < num_shards()`.
  void AttachToShard(size_t shard, ContinuousEngine* engine);

  /// Shard graphs (mirrored edges counted once per holding shard — the
  /// true footprint) + summary table + per-engine state.
  size_t EstimateMemoryBytes() const override;

 protected:
  /// Inserts the arrival into its src and dst owner shards and
  /// republishes the owned endpoints' summary rows; returns the src
  /// owner's record.
  const TemporalEdge& ApplyArrival(const TemporalEdge& ed) override;
  /// Validates liveness and copies the record out of the src owner.
  TemporalEdge CaptureExpiry(const TemporalEdge& ed) const override;
  /// Mirror image of ApplyArrival.
  void ApplyRemoval(const TemporalEdge& ed) override;

 private:
  /// Applies `mutate` to ed's owner shards (once when both endpoints
  /// share an owner), then republishes both endpoints' summary rows from
  /// their owners.
  void MutateOwners(const TemporalEdge& ed,
                    void (*mutate)(TemporalGraph*, const TemporalEdge&));

  std::unique_ptr<VertexPartitioner> partitioner_;
  std::vector<std::unique_ptr<TemporalGraph>> graphs_;
  ShardSummaries summaries_;
  std::unique_ptr<ShardedGraphView> view_;
};

/// The graph a multi-query bundle (core/multi_engine.h) binds its engines
/// to on a sharded context.
inline const ShardedGraphView& EngineGraph(
    const ShardedStreamContext& context) {
  return context.view();
}

}  // namespace tcsm

#endif  // TCSM_SHARD_SHARDED_CONTEXT_H_
