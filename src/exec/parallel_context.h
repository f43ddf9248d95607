// Engine-parallel fan-out over the one shared sliding-window graph.
//
// A ParallelStreamContext is a SharedStreamContext whose notification
// fan-out runs on a worker pool instead of a loop. Every event — a
// single one is a batch of one — runs as ONE pipelined pool job
// (ThreadPool::PipelineFor), one lane per attached engine. Each edge's
// graph mutation is applied exactly once on the driver thread, through
// the virtual mutation hooks, in the settle hook between pipeline steps
// (the two-phase expiry protocol of DESIGN.md §3 is unchanged): one step
// per arrival, two per expiry. The per-engine OnEdgeInserted /
// OnEdgeExpiring / OnEdgeRemoved work — embarrassingly parallel because
// engines are read-only views of a graph no one mutates during a step —
// is claimed dynamically across the pool. In particular the step fence
// between OnEdgeExpiring and the graph removal guarantees every engine
// enumerated its dying embeddings against the pre-deletion state before
// the edge disappears.
//
// This is the only parallel pipeline: the vertex-partitioned
// ShardedStreamContext (shard/sharded_context.h) derives from it and
// only redirects the mutation hooks to its shard graphs.
//
// Determinism: during a step each engine reports into a private
// BufferedMatchSink interposed in front of the sink the caller installed;
// the driver thread drains the buffers in engine-attach order after every
// step. Each engine runs single-threaded per step, so the resulting match
// stream — per query and globally — is byte-identical to serial execution
// regardless of the thread count or scheduling (DESIGN.md §6).
// Constructed with num_threads <= 1 the context spawns no workers and
// runs its serial base class's loops unchanged.
#ifndef TCSM_EXEC_PARALLEL_CONTEXT_H_
#define TCSM_EXEC_PARALLEL_CONTEXT_H_

#include <vector>

#include "core/shared_context.h"
#include "exec/result_sink.h"
#include "exec/thread_pool.h"

namespace tcsm {

class ParallelStreamContext : public SharedStreamContext {
 public:
  explicit ParallelStreamContext(const GraphSchema& schema,
                                 size_t num_threads = 1);

  /// Total parallelism of the notification phases, including the driver
  /// thread; 1 means the serial bypass.
  size_t num_threads() const override { return pool_.num_threads(); }

  /// Batch overrides (DESIGN.md §9): the batch — possibly one event —
  /// runs as ONE pipelined pool job. The event protocol is unchanged:
  /// each edge is applied on the driver thread, fanned out, and its
  /// buffers drained in attach order before the next edge of the batch
  /// mutates the graph, so the match stream stays byte-identical to
  /// serial execution. The one sanctioned deviation: sinks are re-synced
  /// once per batch rather than once per event (the batch boundary is the
  /// sink re-sync point).
  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override;
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count) override;

 private:
  ThreadPool pool_;
  /// Synced once per batch, drained in attach order after every step.
  SinkBuffers sinks_;
  /// Canonical edge records of the in-flight batch. Reserved up front so
  /// the driver's settle-phase push_back never reallocates under the
  /// workers' concurrent reads of earlier elements.
  std::vector<TemporalEdge> batch_scratch_;
};

}  // namespace tcsm

#endif  // TCSM_EXEC_PARALLEL_CONTEXT_H_
