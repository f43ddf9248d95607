// Vertex-partitioned sharded stream context (DESIGN.md §10): the data
// graph is split across S shards by vertex ownership instead of being
// one canonical TemporalGraph. Each shard owns the vertices the
// VertexPartitioner maps to it, stores every live edge with a locally
// owned endpoint (cross-shard edges are mirrored to BOTH endpoint
// owners, so an owner always holds an owned vertex's complete adjacency
// and local scans never leave the shard), and runs the engines attached
// to it. Edge ids stay the GLOBAL dense arrival indices — shard graphs
// use TemporalGraph::InsertEdgeAs, so EdgeId-keyed engine state is
// identical to an unsharded run and the slot pools stay O(window).
//
// Execution: a micro-batch of same-timestamp events — a single event is
// a batch of one — runs as one pipelined pool job with one lane per shard
// (ThreadPool::PipelineFor). Mutation steps touch shard-local state only
// (lane s mutates graph s and publishes the summary rows of the vertices
// s owns); notification steps run each shard's engines, which read any
// shard's graph through the ShardedGraphView — safe because no lane
// mutates during a notification step and the pipeline step fences order
// mutations-before-reads. Pooled lanes report into per-engine buffered
// sinks drained on the driver in shard-then-attach order; with one
// thread the lanes run inline on the driver in that same order and
// report straight to the sinks. Either way the match stream is
// deterministic at every shard x thread count; with engines placed
// contiguously (ShardedMultiQueryEngine) it is byte-identical to serial
// execution, per query AND globally.
//
// This context is the in-process rehearsal of a distributed deployment:
// the partitioner, the mirroring rule, and the summary exchange are the
// exact seams a transport would slot into (lanes become peers, Publish
// becomes a broadcast); nothing in the engines would change.
#ifndef TCSM_SHARD_SHARDED_CONTEXT_H_
#define TCSM_SHARD_SHARDED_CONTEXT_H_

#include <memory>
#include <vector>

#include "core/shared_context.h"
#include "exec/result_sink.h"
#include "exec/thread_pool.h"
#include "shard/partitioner.h"
#include "shard/sharded_graph.h"
#include "shard/summaries.h"

namespace tcsm {

class ShardedStreamContext : public SharedStreamContext {
 public:
  /// Partitions the schema's vertex set across `num_shards` with a
  /// HashVertexPartitioner. `num_threads` is the pool width driving the
  /// shard lanes (including the driver thread); 0 means one thread per
  /// shard. Widths beyond `num_shards` add nothing — a batch fans out at
  /// most one lane per shard. With 1 thread the lanes run inline on the
  /// driver (the serial bypass; results are identical either way).
  ShardedStreamContext(const GraphSchema& schema, size_t num_shards,
                       size_t num_threads = 0);

  size_t num_shards() const override { return graphs_.size(); }
  size_t num_threads() const override { return pool_.num_threads(); }

  /// The logical graph engines bind to (ShardedTcmEngine's GraphT).
  const ShardedGraphView& view() const { return *view_; }
  const VertexPartitioner& partitioner() const { return *partitioner_; }
  const ShardSummaries& summaries() const { return summaries_; }
  /// Shard s's local graph (tests and memory accounting).
  const TemporalGraph& shard_graph(size_t s) const { return *graphs_[s]; }

  /// Places `engine` on a specific shard: its notification work runs on
  /// that shard's lane. The per-engine match stream is byte-identical to
  /// serial regardless of placement; the GLOBAL interleaving is
  /// shard-then-attach order, so it equals the serial attach order
  /// exactly when engines are attached shard-monotonically (shard ids
  /// nondecreasing in attach order — what ShardedMultiQueryEngine does).
  void AttachToShard(size_t shard, ContinuousEngine* engine);

  /// Round-robin placement (attach order modulo shard count). Convenient
  /// for ad-hoc use; prefer AttachToShard for the global-order guarantee
  /// above.
  void Attach(ContinuousEngine* engine) override;

  /// Batch entry points: the whole batch runs as ONE pipelined pool job,
  /// two steps per arrival (mutate shards, notify) and three per expiry
  /// (notify expiring, remove, notify removed) — the same event protocol
  /// as the serial base, with a step fence between every step.
  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override;
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count) override;

  /// Shard graphs (mirrored edges counted once per holding shard — the
  /// true footprint) + summary table + per-engine state.
  size_t EstimateMemoryBytes() const override;

 private:
  /// Lane body, mutation step: inserts the arrival into shard s if s
  /// owns an endpoint, then re-publishes the summary rows of the owned
  /// endpoint(s). No-op for uninvolved shards.
  void ApplyShardArrival(size_t s, const TemporalEdge& ed);
  /// Lane body, removal step: mirror image of ApplyShardArrival.
  void ApplyShardRemoval(size_t s, const TemporalEdge& ed);
  /// The canonical record of an applied arrival: the src owner always
  /// stores the edge. Valid until that shard mutates again.
  const TemporalEdge& CanonicalArrival(const TemporalEdge& ed) const;
  /// Validates liveness and copies the canonical record of an expiring
  /// edge out of the src owner's graph (the sharded CaptureExpiry).
  TemporalEdge CaptureShardExpiry(const TemporalEdge& ed) const;

  /// Runs one engine hook over shard s's engines in attach order.
  void RunShardHook(size_t s,
                    void (ContinuousEngine::*hook)(const TemporalEdge&),
                    const TemporalEdge& ed);
  /// Drains the buffers in shard-then-attach order (the deterministic
  /// merge of the per-shard match streams).
  void DrainSinks();

  std::unique_ptr<VertexPartitioner> partitioner_;
  std::vector<std::unique_ptr<TemporalGraph>> graphs_;
  ShardSummaries summaries_;
  std::unique_ptr<ShardedGraphView> view_;
  ThreadPool pool_;
  /// Per shard, the indexes (into engines()) of the engines placed on
  /// it, in attach order.
  std::vector<std::vector<size_t>> shard_members_;
  /// Interposed in front of every engine's sink once per pooled batch.
  SinkBuffers sinks_;
  /// Canonical records of the in-flight batch; reserved up front so the
  /// driver's settle-phase push_back never reallocates under the lanes'
  /// concurrent reads of earlier elements.
  std::vector<TemporalEdge> batch_scratch_;
};

}  // namespace tcsm

#endif  // TCSM_SHARD_SHARDED_CONTEXT_H_
