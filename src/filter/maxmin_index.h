// Max-min timestamp index T(q̂) — the paper's core filtering structure
// (Section IV-C). One instance is bound to one query DAG (q̂ or q̂⁻¹).
//
// For each DAG vertex u, candidate data vertex v with matching label, and
// tracked query edge e (see QueryDag::TrackedLater/TrackedEarlier), the
// index maintains
//
//   Later(u,v,e)  = max over weak embeddings M' of q̂_u at v of
//                     min{ T(M'(e')) : e ≺ e', e' in q̂_u }      (Def. IV.3)
//   Earlier(u,v,e)= min over weak embeddings M' of q̂_u at v of
//                     max{ T(M'(e')) : e' ≺ e, e' in q̂_u }      (symmetric)
//
// plus Weak(u,v) = "a weak embedding of q̂_u at v exists". By Lemma IV.3
// (and its mirror), query edge e = (u1,u2) is TC-matchable to data edge
// (v1,v2,t) in this DAG iff Weak holds at the child endpoint and
// Earlier < t < Later there.
//
// Entries are created lazily (dynamic programming over the DAG, Eq. (1))
// and updated incrementally on edge arrival/expiration by recomputing only
// affected (u, v) entries in reverse topological order — Algorithm 3
// (TCMInsertion / TCMDeletion).
#ifndef TCSM_FILTER_MAXMIN_INDEX_H_
#define TCSM_FILTER_MAXMIN_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "dag/query_dag.h"
#include "graph/temporal_graph.h"
#include "query/query_graph.h"

namespace tcsm {

/// A (query vertex, data vertex) pair whose filter gate changed; the DCS
/// layer re-evaluates the matchability of data edges incident to v against
/// query edges entering u.
struct UvPair {
  VertexId u;
  VertexId v;
};

/// Static (timestamp-independent) feasibility of mapping query edge qe onto
/// data edge ed with the given endpoint correspondence.
/// flip == false: qe.u -> ed.src, qe.v -> ed.dst; flip == true: swapped.
/// Directed graphs admit only flip == false (query direction u->v must
/// match data direction src->dst).
/// Generic over the graph type: any store exposing VertexLabel() works
/// (the canonical TemporalGraph, or a sharded view — see src/shard/).
template <typename GraphT>
bool StaticFeasible(const QueryGraph& query, const GraphT& graph, EdgeId qe,
                    const TemporalEdge& ed, bool flip) {
  if (query.directed() && flip) return false;
  const QueryEdge& q = query.Edge(qe);
  if (q.elabel != ed.label) return false;
  const VertexId image_u = flip ? ed.dst : ed.src;
  const VertexId image_v = flip ? ed.src : ed.dst;
  return query.VertexLabel(q.u) == graph.VertexLabel(image_u) &&
         query.VertexLabel(q.v) == graph.VertexLabel(image_v);
}

/// The index is a template over the graph type so the identical filtering
/// code runs against the canonical single graph and against a sharded
/// read view (src/shard/sharded_graph.h) — the view exposes the same
/// adjacency surface (VertexLabel / directed / MayHaveMatching /
/// NeighborsMatching), just routed to the owning shard. `MaxMinIndex`
/// below is the canonical instantiation.
template <typename GraphT>
class BasicMaxMinIndex {
 public:
  /// `graph` and `dag` must outlive the index. The graph must be the
  /// engine's live windowed graph; the index reads adjacency lazily.
  /// Entry recomputation scans only the (edge label, neighbor label)
  /// bucket each DAG edge can match, and skips a bucket outright when the
  /// graph's per-vertex direction-aware Bloom signature shows no entry
  /// can match — the scan counters then record zero visits for it.
  BasicMaxMinIndex(const GraphT* graph, const QueryDag* dag);

  /// Incremental update after `ed` was inserted into the graph
  /// (TCMInsertion). Appends to `touched` the entries whose gate values
  /// (Weak or a slot of an edge entering u) changed.
  void OnEdgeInserted(const TemporalEdge& ed, std::vector<UvPair>* touched);

  /// Incremental update after `ed` was removed from the graph
  /// (TCMDeletion).
  void OnEdgeRemoved(const TemporalEdge& ed, std::vector<UvPair>* touched);

  /// Temporal half of Lemma IV.3 for this DAG. The caller must have
  /// checked StaticFeasible already.
  bool CheckMatchable(EdgeId qe, const TemporalEdge& ed, bool flip);

  /// T[u, v, e] accessors (used by tests and examples). Untracked edges
  /// report +inf / -inf when a weak embedding exists, else -inf / +inf.
  Timestamp Later(VertexId u, VertexId v, EdgeId e);
  Timestamp Earlier(VertexId u, VertexId v, EdgeId e);
  bool Weak(VertexId u, VertexId v);

  const QueryDag& dag() const { return *dag_; }

  size_t NumEntries() const;
  size_t EstimateMemoryBytes() const;

  /// Adds the adjacency-entry scan counts accumulated since the last call
  /// to `*scanned`/`*matched` and resets them (drained by the owning
  /// engine into its EngineCounters).
  void DrainScanCounters(uint64_t* scanned, uint64_t* matched) {
    *scanned += scanned_;
    *matched += matched_;
    scanned_ = 0;
    matched_ = 0;
  }

 private:
  struct Entry {
    bool weak = false;
    std::vector<Timestamp> later;    // slots: dag.TrackedLater(u)
    std::vector<Timestamp> earlier;  // slots: dag.TrackedEarlier(u)

    bool operator==(const Entry&) const = default;
  };

  /// Returns the entry for (u, v), computing it bottom-up if absent.
  /// Label mismatch yields a permanent "no weak embedding" entry.
  const Entry& GetEntry(VertexId u, VertexId v);

  Entry ComputeEntry(VertexId u, VertexId v);

  /// True when old/new differ on Weak or on a slot of an edge entering u.
  bool GateChanged(VertexId u, const Entry& before, const Entry& after) const;

  /// Marks (u, v) dirty if its entry exists (lazy entries need no update).
  void MarkDirty(VertexId u, VertexId v);

  /// Recomputes dirty entries in reverse topological order, propagating
  /// changes to existing parent entries; fills `touched`.
  void ProcessDirty(std::vector<UvPair>* touched);

  /// Invokes `fn(entry)` for the entries of v's (elabel, nbr_label)
  /// bucket whose direction from v's perspective is `want_out` (every
  /// entry on undirected graphs), counting each visited entry as scanned
  /// and each passed to `fn` as matched. The Bloom pre-filter skips
  /// buckets holding only wrong-direction entries; the skip is sound
  /// because such a scan has no effect besides the scan counter.
  template <typename Fn>
  void ScanNeighbors(VertexId v, Label elabel, Label nbr_label,
                     bool want_out, Fn&& fn) {
    if (!graph_->MayHaveMatching(v, elabel, nbr_label, want_out)) return;
    for (const AdjEntry& a : graph_->NeighborsMatching(v, elabel,
                                                       nbr_label)) {
      ++scanned_;
      if (graph_->directed() && a.out != want_out) continue;
      ++matched_;
      fn(a);
    }
  }

  const GraphT* graph_;
  const QueryDag* dag_;
  const QueryGraph* query_;
  uint64_t scanned_ = 0;
  uint64_t matched_ = 0;

  std::vector<std::unordered_map<VertexId, Entry>> entries_;  // per u
  /// Dirty sets bucketed by topological position of u.
  std::vector<std::unordered_set<VertexId>> dirty_;
};

/// The canonical instantiation every existing call site uses; compiled
/// once in maxmin_index.cpp (extern template keeps rebuilds cheap).
using MaxMinIndex = BasicMaxMinIndex<TemporalGraph>;

}  // namespace tcsm

#include "filter/maxmin_index-inl.h"

namespace tcsm {
extern template class BasicMaxMinIndex<TemporalGraph>;
}  // namespace tcsm

#endif  // TCSM_FILTER_MAXMIN_INDEX_H_
