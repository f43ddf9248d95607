// Common interface of all continuous-matching engines (TCM and the
// baselines) plus match sinks. Engines are read-only views over the one
// canonical sliding-window graph owned by a SharedStreamContext
// (core/shared_context.h): the context applies each arrival/expiration to
// the graph exactly once and then notifies every attached engine, which
// maintains only per-query state (DAG, filter indexes, DCS, backtracking
// scratch) and reports every time-constrained embedding that occurs or
// expires. See DESIGN.md §1 for the ownership model.
#ifndef TCSM_CORE_ENGINE_H_
#define TCSM_CORE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "common/types.h"
#include "core/embedding.h"
#include "graph/temporal_edge.h"
#include "query/query_graph.h"

namespace tcsm {

enum class MatchKind { kOccurred, kExpired };

/// Receives matches from an engine. Engines that can factor out
/// interchangeable parallel edges (pruning technique 1) ask
/// `wants_each_embedding` first: counting sinks accept one representative
/// embedding with a multiplicity instead of the expanded set.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual bool wants_each_embedding() const { return true; }
  virtual void OnMatch(const Embedding& embedding, MatchKind kind,
                       uint64_t multiplicity) = 0;
};

class CountingSink : public MatchSink {
 public:
  bool wants_each_embedding() const override { return false; }
  void OnMatch(const Embedding&, MatchKind kind,
               uint64_t multiplicity) override {
    (kind == MatchKind::kOccurred ? occurred_ : expired_) += multiplicity;
  }
  uint64_t occurred() const { return occurred_; }
  uint64_t expired() const { return expired_; }

 private:
  uint64_t occurred_ = 0;
  uint64_t expired_ = 0;
};

class CollectingSink : public MatchSink {
 public:
  void OnMatch(const Embedding& embedding, MatchKind kind,
               uint64_t multiplicity) override {
    for (uint64_t i = 0; i < multiplicity; ++i) {
      matches_.emplace_back(embedding, kind);
    }
  }
  const std::vector<std::pair<Embedding, MatchKind>>& matches() const {
    return matches_;
  }

 private:
  std::vector<std::pair<Embedding, MatchKind>> matches_;
};

/// Static description of the data graph the stream runs over (vertex set
/// and labels are fixed; only edges arrive/expire).
struct GraphSchema {
  bool directed = false;
  std::vector<Label> vertex_labels;
};

struct EngineCounters {
  uint64_t occurred = 0;
  uint64_t expired = 0;
  uint64_t search_nodes = 0;
  /// Wall-clock nanoseconds spent in index maintenance (filter + DCS)
  /// vs. backtracking, Algorithm 1's two phases: the one record of engine
  /// time. Only the TCM engine fills these, with or without metrics; the
  /// driver reports a run's deltas in StreamResult and the engine.* gauges.
  uint64_t update_ns = 0;
  uint64_t search_ns = 0;
  /// Scan-selectivity counters for the label-partitioned adjacency:
  /// `adj_entries_scanned` counts adjacency entries visited during index
  /// maintenance and enumeration scans, `adj_entries_matched` those that
  /// passed all static (label + direction) checks at the scan site. A
  /// bucket scan visits only entries of the wanted labels, so on
  /// undirected graphs the two are equal for TCM; on directed graphs the
  /// gap counts the wrong-direction entries that the Bloom pre-filter
  /// could not rule out.
  uint64_t adj_entries_scanned = 0;
  uint64_t adj_entries_matched = 0;
};

class ContinuousEngine {
 public:
  virtual ~ContinuousEngine() = default;

  virtual std::string name() const = 0;

  /// Notification hooks, driven by the SharedStreamContext that owns the
  /// shared data graph. `ed` is always the canonical graph edge with its
  /// dense graph-assigned id already in place.
  ///
  /// Called after the arrival was applied to the shared graph: update
  /// per-query indexes and enumerate the embeddings that occur with `ed`.
  virtual void OnEdgeInserted(const TemporalEdge& ed) = 0;
  /// Called while the expiring edge is still live in the shared graph:
  /// enumerate the embeddings that expire with it against the pre-deletion
  /// state (DESIGN.md §3).
  virtual void OnEdgeExpiring(const TemporalEdge& ed) = 0;
  /// Called after the edge was removed from the shared graph: update
  /// per-query indexes. Engines without deletion-time index work keep the
  /// default no-op.
  virtual void OnEdgeRemoved(const TemporalEdge& ed) { (void)ed; }

  /// Accounting-based footprint of the engine's per-query state: its own
  /// indexes, materialized records and scratch (StateMemoryBytes) plus
  /// the absence layer's deferred state, priced here once for every
  /// engine. The shared graph is accounted once by the
  /// SharedStreamContext, never here. Arithmetic over element counts
  /// (DESIGN.md §5), so cheap enough to observe after every delivery.
  size_t EstimateMemoryBytes() const {
    return StateMemoryBytes() + AbsenceMemoryBytes();
  }

  /// True when internal capacity limits were exceeded (Timing's
  /// materialization cap); results are then incomplete.
  virtual bool overflowed() const { return false; }

  void set_sink(MatchSink* sink) { sink_ = sink; }
  /// The currently installed sink (null when reports are counter-only).
  /// ParallelStreamContext reads this to interpose its per-engine result
  /// buffers in front of whatever the caller installed.
  MatchSink* sink() const { return sink_; }
  void set_deadline(Deadline* deadline) { deadline_ = deadline; }
  const EngineCounters& counters() const { return counters_; }

 protected:
  /// Routes every match report. Without absence predicates this is the
  /// direct emission path (one pointer test); with them, occurred reports
  /// are deferred and expired reports resolve the pending state
  /// (DESIGN.md §12). Engines with absence active always report expanded
  /// embeddings with multiplicity 1.
  void Report(const Embedding& embedding, MatchKind kind,
              uint64_t multiplicity) {
    if (absence_ != nullptr) {
      AbsenceReport(embedding, kind, multiplicity);
      return;
    }
    Emit(embedding, kind, multiplicity);
  }

  /// Sets up the deferred-emission state iff `query` carries absence
  /// predicates. Every engine constructor calls this once.
  void InitAbsence(const QueryGraph& query);

  /// Absence hook for arrivals: every engine calls this at the very top of
  /// OnEdgeInserted, before any relevance early-out — an edge that matches
  /// no query edge can still violate (or time out) an absence window.
  void AbsenceArrival(const TemporalEdge& ed) {
    if (absence_ != nullptr) AbsenceArrivalSlow(ed);
  }

  bool absence_active() const { return absence_ != nullptr; }

  /// The engine's own share of EstimateMemoryBytes, absence state excluded.
  virtual size_t StateMemoryBytes() const = 0;

  MatchSink* sink_ = nullptr;
  Deadline* deadline_ = nullptr;
  EngineCounters counters_;

 private:
  /// Counter + sink emission; counters count at emission time so they
  /// always reconcile with what the sink observed.
  void Emit(const Embedding& embedding, MatchKind kind,
            uint64_t multiplicity) {
    (kind == MatchKind::kOccurred ? counters_.occurred : counters_.expired) +=
        multiplicity;
    if (sink_ != nullptr) sink_->OnMatch(embedding, kind, multiplicity);
  }

  struct AbsencePending {
    Embedding emb;
    Timestamp trigger_ts = 0;
    Timestamp deadline = 0;
  };
  struct AbsenceState {
    bool directed = false;
    /// Heap bytes of one embedding's two arrays (fixed by the query).
    size_t embedding_bytes = 0;
    std::vector<AbsencePredicate> predicates;
    Timestamp max_delta = 0;
    /// Timestamp of the most recent arrival, plus the arrivals at that
    /// instant whose label matches some predicate (delivered before the
    /// current one): a completion at time T must also check edges that
    /// arrived at T *before* its trigger.
    Timestamp cur_ts = kMinusInfinity;
    std::vector<TemporalEdge> same_ts;
    /// Completions awaiting their absence window, in completion (FIFO)
    /// order; deadlines are non-decreasing because max_delta is constant.
    std::deque<AbsencePending> pending;
    /// Embeddings whose occurred report was suppressed by a violating
    /// edge; their eventual expired report is swallowed too.
    std::unordered_set<Embedding, EmbeddingHash> suppressed;
  };

  void AbsenceArrivalSlow(const TemporalEdge& ed);
  void AbsenceReport(const Embedding& embedding, MatchKind kind,
                     uint64_t multiplicity);
  bool AbsenceViolates(const Embedding& emb, Timestamp trigger_ts,
                       const TemporalEdge& ed) const;
  /// Pending completions, suppressed embeddings and same_ts, by count.
  size_t AbsenceMemoryBytes() const;

  std::unique_ptr<AbsenceState> absence_;
};

}  // namespace tcsm

#endif  // TCSM_CORE_ENGINE_H_
