// Shared sliding-window graph for continuous matching. A stream carries
// one data graph regardless of how many queries watch it, so the context
// owns the one canonical TemporalGraph, applies every arrival/expiration
// to it exactly once, and fans the applied event out to the engines
// attached to it. Engines are read-only views (const TemporalGraph&) and
// keep only per-query state — O(1) graph storage and one adjacency update
// per event for any number of queries (DESIGN.md §1).
//
// Every event enters through the batch entry points — a single event is
// a batch of one. The base batch loops hold the one serial copy of the
// per-edge protocol. Two protected virtual seams split it: the graph
// mutations (ApplyArrival / CaptureExpiry / ApplyRemoval), which a
// sharded context (shard/sharded_context.h) redirects to its partitioned
// storage, and the engine notifications (NotifyInserted / NotifyExpiring
// / NotifyRemoved), which instrumented subclasses wrap.
// ParallelStreamContext (exec/parallel_context.h) overrides the batch
// entry points to run a batch as one pipelined pool job, one lane per
// engine, while the mutation hooks stay on the driver thread
// (DESIGN.md §6, §10).
#ifndef TCSM_CORE_SHARED_CONTEXT_H_
#define TCSM_CORE_SHARED_CONTEXT_H_

#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/engine.h"
#include "graph/temporal_graph.h"
#include "query/query_graph.h"

namespace tcsm {

class Observability;
class TraceWriter;
struct StageMetrics;

class SharedStreamContext {
 public:
  explicit SharedStreamContext(const GraphSchema& schema);
  virtual ~SharedStreamContext() = default;

  SharedStreamContext(const SharedStreamContext&) = delete;
  SharedStreamContext& operator=(const SharedStreamContext&) = delete;

  /// The canonical windowed graph. Engines bind to this at construction.
  /// A sharded context (at any shard count) stores its graph in shards
  /// and keeps no canonical copy, so calling this there is a CHECK
  /// failure: its engines bind to ShardedStreamContext::view() instead.
  const TemporalGraph& graph() const {
    TCSM_CHECK(canonical_ && "a sharded context's engines bind to view()");
    return g_;
  }

  /// Registers an engine constructed against graph(). The engine must
  /// outlive all subsequent event processing; it is notified in attach
  /// order.
  void Attach(ContinuousEngine* engine);
  const std::vector<ContinuousEngine*>& engines() const { return engines_; }

  /// Applies an arrival (edge ids must be the dense arrival indices
  /// 0, 1, 2, ... of TemporalDataset::Normalize()) and notifies every
  /// engine with the canonical graph edge: a batch of one.
  void OnEdgeArrival(const TemporalEdge& ed) { OnEdgeArrivalBatch(&ed, 1); }

  /// Two-phase expiration (DESIGN.md §3) of one edge: a batch of one.
  void OnEdgeExpiry(const TemporalEdge& ed) { OnEdgeExpiryBatch(&ed, 1); }

  /// The per-edge entry points (DESIGN.md §9): `count` consecutive events
  /// of one kind sharing a timestamp, delivered together so a driver can
  /// amortize its per-event bookkeeping and an override can amortize the
  /// fan-out machinery. The event protocol is NOT relaxed: each edge is
  /// applied and fanned out to every engine before the next edge of the
  /// batch mutates anything. For an arrival: apply, then NotifyInserted.
  /// For an expiry: capture the live record, NotifyExpiring against the
  /// pre-deletion graph, remove, then NotifyRemoved. The base loops run
  /// exactly that on the calling thread; the parallel context overrides
  /// them to run the whole batch as one pipelined pool job.
  virtual void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count);
  virtual void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count);

  /// Honest multi-query footprint: the shared graph accounted once plus
  /// every attached engine's per-query state.
  virtual size_t EstimateMemoryBytes() const;

  /// True when any attached engine overflowed (results incomplete).
  bool overflowed() const;

  /// Propagates the per-run deadline to every attached engine (including
  /// engines attached later).
  void set_deadline(Deadline* deadline);

  /// Installs (or clears, with null) the run's observability bundle:
  /// caches the stage-metric handles and the optional trace writer for
  /// the context's own driver-thread seams. Engines are not told: their
  /// phase times stay in EngineCounters (AggregateCounters below). The
  /// driver calls this once before the first event.
  void set_observability(Observability* obs);
  Observability* observability() const { return obs_; }

  /// Sum of the attached engines' counters.
  EngineCounters AggregateCounters() const;

  /// Total parallelism of the engine fan-out, including the driver
  /// thread. The serial base class always reports 1.
  virtual size_t num_threads() const { return 1; }

  /// Number of vertex partitions the data graph is split across
  /// (src/shard/). Unsharded contexts — everything except
  /// ShardedStreamContext — report 1.
  virtual size_t num_shards() const { return 1; }

 protected:
  /// Engine fan-out seam of the base batch loops: notifies every
  /// attached engine in attach order on the calling thread. Virtual so an
  /// instrumented subclass can wrap each phase; an override must preserve
  /// the event protocol: the arrival is already applied when
  /// NotifyInserted runs, the expiring edge is still live throughout
  /// NotifyExpiring and already removed when NotifyRemoved runs, and
  /// every engine must have returned before the context mutates the graph
  /// again.
  virtual void NotifyInserted(const TemporalEdge& ed);
  virtual void NotifyExpiring(const TemporalEdge& ed);
  virtual void NotifyRemoved(const TemporalEdge& ed);

  /// Graph-mutation halves of the per-edge protocol, always run on the
  /// driver thread: the base loops call them between notifications and
  /// the parallel pipeline from its settle hook. Virtual so a sharded
  /// context can write its partitioned storage instead of graph().
  /// ApplyArrival inserts and returns the canonical record (valid until
  /// the next mutation); CaptureExpiry validates and copies the canonical
  /// record of a live edge; ApplyRemoval removes that record's edge (the
  /// record stays readable through the following NotifyRemoved, see
  /// TemporalGraph).
  virtual const TemporalEdge& ApplyArrival(const TemporalEdge& ed);
  virtual TemporalEdge CaptureExpiry(const TemporalEdge& ed) const;
  virtual void ApplyRemoval(const TemporalEdge& ed) { g_.RemoveEdge(ed.id); }

  /// For a subclass whose mutation hooks write other storage (the sharded
  /// context): graph() then CHECK-fails instead of handing an engine a
  /// graph that never receives an edge.
  void RetireCanonicalGraph() { canonical_ = false; }

  /// Cached observability handles for subclass seams; null when the run
  /// carries no bundle (the default), in which case instrumented sites
  /// must do nothing.
  const StageMetrics* stage_metrics() const { return stages_; }
  TraceWriter* trace_writer() const { return trace_; }

 private:
  TemporalGraph g_;
  bool canonical_ = true;  // false once RetireCanonicalGraph() ran
  std::vector<ContinuousEngine*> engines_;
  Deadline* deadline_ = nullptr;
  Observability* obs_ = nullptr;
  const StageMetrics* stages_ = nullptr;
  TraceWriter* trace_ = nullptr;
};

/// Context owning a single engine — the shape of most call sites (CLI,
/// per-figure benches, single-query tests): one query over one stream.
/// Extra constructor arguments are forwarded to the engine after the
/// graph reference (e.g. a TcmConfig).
template <typename EngineT>
class SingleQueryContext : public SharedStreamContext {
 public:
  template <typename... Args>
  SingleQueryContext(const QueryGraph& query, const GraphSchema& schema,
                     Args&&... args)
      : SharedStreamContext(schema),
        engine_(query, graph(), std::forward<Args>(args)...) {
    Attach(&engine_);
  }

  EngineT& engine() { return engine_; }
  const EngineT& engine() const { return engine_; }

 private:
  EngineT engine_;
};

}  // namespace tcsm

#endif  // TCSM_CORE_SHARED_CONTEXT_H_
