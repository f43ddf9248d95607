// Sharded multi-query fan-out over the one shared sliding-window graph.
//
// A ParallelStreamContext is a SharedStreamContext whose notification
// fan-out runs on a worker pool instead of a loop: the graph mutation for
// an event is still applied exactly once on the driver thread (the
// two-phase expiry protocol of DESIGN.md §3 is unchanged), and then the
// per-engine OnEdgeInserted / OnEdgeExpiring / OnEdgeRemoved work — which
// PR 2 made embarrassingly parallel by turning engines into read-only
// views of a const graph — is sharded dynamically across the pool, with a
// full barrier at the end of each phase. In particular the barrier
// between OnEdgeExpiring and the graph removal guarantees every engine
// enumerated its dying embeddings against the pre-deletion state before
// the edge disappears.
//
// Determinism: during a phase each engine reports into a private
// BufferedMatchSink interposed in front of the sink the caller installed;
// at the end of the event the driver thread drains the buffers in
// engine-attach order. Each engine runs single-threaded per phase, so the
// resulting match stream — per query and globally — is byte-identical to
// serial execution regardless of the thread count or scheduling
// (DESIGN.md §6). Constructed with num_threads <= 1 the context spawns no
// workers and behaves exactly like its serial base class.
#ifndef TCSM_EXEC_PARALLEL_CONTEXT_H_
#define TCSM_EXEC_PARALLEL_CONTEXT_H_

#include <vector>

#include "core/shared_context.h"
#include "exec/result_sink.h"
#include "exec/thread_pool.h"

namespace tcsm {

class ParallelStreamContext : public SharedStreamContext {
 public:
  ParallelStreamContext(const GraphSchema& schema, size_t num_threads);

  /// Total parallelism of the notification phases, including the driver
  /// thread; 1 means the serial bypass.
  size_t num_threads() const override { return pool_.num_threads(); }

  /// Micro-batch overrides (DESIGN.md §9): a batch of same-timestamp
  /// events runs as ONE pipelined pool job (ThreadPool::PipelineFor)
  /// instead of one-to-three condition-variable barriers per event. The
  /// event protocol is unchanged — each edge is applied on the driver
  /// thread, fanned out, and its buffers drained in attach order before
  /// the next edge of the batch mutates the graph — so the match stream
  /// stays byte-identical to serial execution. The one sanctioned
  /// deviation: sinks are re-synced once per batch rather than once per
  /// event (the batch boundary is the sink re-sync point).
  void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count) override;
  void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count) override;

 protected:
  void NotifyInserted(const TemporalEdge& ed) override;
  void NotifyExpiring(const TemporalEdge& ed) override;
  void NotifyRemoved(const TemporalEdge& ed) override;

 private:
  /// Runs `hook` on every attached engine across the pool and blocks
  /// until all of them finished (the phase barrier).
  void RunPhase(void (ContinuousEngine::*hook)(const TemporalEdge&),
                const TemporalEdge& ed);

  ThreadPool pool_;
  /// Synced before each parallel fan-out, drained in attach order.
  SinkBuffers sinks_;
  /// Canonical edge records of the in-flight batch. Reserved up front so
  /// the driver's settle-phase push_back never reallocates under the
  /// workers' concurrent reads of earlier elements.
  std::vector<TemporalEdge> batch_scratch_;
};

}  // namespace tcsm

#endif  // TCSM_EXEC_PARALLEL_CONTEXT_H_
