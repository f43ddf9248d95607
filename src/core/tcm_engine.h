// TCM — the paper's algorithm (Algorithm 1 + Algorithm 4).
//
// The engine is a read-only view over the SharedStreamContext's windowed
// graph. Per event it (i) updates the max-min timestamp indexes for q̂ and
// q̂⁻¹ (TCMInsertion/TCMDeletion), (ii) diffs TC-matchable-edge verdicts
// into DCS edge inserts/removals (E±_DCS), and (iii) backtracks from the
// update edge to enumerate every occurred/expired time-constrained
// embedding, applying the three time-constrained pruning techniques of
// Section V:
//
//   1. R⁻_M(e) = ∅      — all parallel candidates lead to identical search
//                         trees; explore one and multiply (or expand) the
//                         results over the siblings.
//   2. uniform relation — candidates tried in (reverse-)chronological
//                         order; the first failure kills all stricter
//                         siblings.
//   3. temporal failing set (Definition V.3) — a failed subtree whose
//                         failing set does not contain e prunes all
//                         remaining candidates of e.
//
// Expirations are matched against the pre-deletion state (the expiring
// embeddings are exactly those containing the expiring edge) in
// OnEdgeExpiring, then the structures are updated in OnEdgeRemoved after
// the context deleted the edge; see DESIGN.md §3 for why this deviates
// from the literal order of Algorithm 1.
#ifndef TCSM_CORE_TCM_ENGINE_H_
#define TCSM_CORE_TCM_ENGINE_H_

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmask.h"
#include "core/engine.h"
#include "dag/query_dag.h"
#include "dcs/dcs_index.h"
#include "filter/maxmin_index.h"
#include "graph/temporal_graph.h"

namespace tcsm {

/// The knobs the paper's own measurements vary: the TC-matchable-edge
/// filter (Table V) and the pruning techniques of Section V (Fig. 11).
/// Everything else the paper prescribes is always on: filtering with both
/// q̂ and q̂⁻¹ (Section IV-A), the best-scoring DAG root (Algorithm 1
/// lines 1-6), and bucket scans of the label-partitioned adjacency behind
/// the graph's Bloom signature masks.
struct TcmConfig {
  /// TC-matchable edge filtering (Section IV). Off = DCS holds every
  /// statically feasible pair, as in SymBi; used for the Table V ablation.
  bool use_tc_filter = true;
  /// Pruning technique 1 (no temporally related edges remain).
  bool prune_no_relation = true;
  /// Pruning technique 2 (uniform relation, monotone skip).
  bool prune_uniform = true;
  /// Pruning technique 3 (temporal failing sets).
  bool prune_failing_set = true;
  /// Prune with inter-edge gap bounds (QueryGraph::gaps) during
  /// backtracking: the ECM candidate window of an edge is intersected with
  /// [ts(partner) + min, ts(partner) + max] for every mapped gap partner,
  /// and gap partners count as temporally related when grouping parallel
  /// candidates (technique 1). Off = gaps are post-filtered on complete
  /// embeddings (the baseline behavior); results are identical either way
  /// — this is the ablation knob proving the pruning win. No-op for
  /// queries without gap constraints.
  bool prune_gap_bounds = true;
};

/// The engine is a template over the graph type: the matching code is
/// identical whether it reads the canonical single TemporalGraph or a
/// sharded view routing every per-vertex read to the owning shard
/// (src/shard/sharded_graph.h). GraphT must expose the TemporalGraph
/// read surface: VertexLabel, directed, MayHaveMatching,
/// NeighborsMatching, EdgeNear, AliveEdge. `TcmEngine`
/// below is the canonical instantiation every single-graph call site
/// keeps using.
template <typename GraphT>
class BasicTcmEngine : public ContinuousEngine {
 public:
  /// `graph` is the context-owned shared graph (or sharded view); it must
  /// outlive the engine, carry the data vertex set with its labels, and
  /// match the query's directedness.
  BasicTcmEngine(const QueryGraph& query, const GraphT& graph,
                 TcmConfig config = {});

  BasicTcmEngine(const BasicTcmEngine&) = delete;
  BasicTcmEngine& operator=(const BasicTcmEngine&) = delete;

  std::string name() const override;
  void OnEdgeInserted(const TemporalEdge& ed) override;
  void OnEdgeExpiring(const TemporalEdge& ed) override;
  void OnEdgeRemoved(const TemporalEdge& ed) override;
  size_t StateMemoryBytes() const override;

  const DcsIndex& dcs() const { return dcs_; }
  const QueryDag& dag() const { return dag_q_; }
  BasicMaxMinIndex<GraphT>* filter_q() { return filter_q_.get(); }
  BasicMaxMinIndex<GraphT>* filter_r() { return filter_r_.get(); }
  const GraphT& graph() const { return g_; }

 private:
  struct SearchResult {
    bool found;
    Mask64 failing;  // temporal failing set; meaningful only when !found
  };

  struct FreeGroup {
    EdgeId qe;
    std::vector<ParallelEdge> alternatives;  // excluding the chosen edge
  };

  /// True when some (query edge, orientation) pair is statically feasible
  /// for `ed`; statically infeasible events are complete no-ops. Tested
  /// against the precomputed label signatures of the query edges.
  bool Relevant(const TemporalEdge& ed) const;

  /// Recomputes filter verdicts affected by the update and applies the
  /// resulting DCS edge delta (E±_DCS of Algorithm 1).
  void UpdateStructures(const TemporalEdge& ed, bool inserting);

  /// Enumerates all embeddings that contain `ed` (Algorithm 4 seeds).
  void FindMatches(const TemporalEdge& ed, MatchKind kind);

  SearchResult Extend();
  SearchResult ExtendEdge(EdgeId qe);
  SearchResult ExtendVertex();
  void ReportCurrent();
  void ExpandGroups(size_t group_idx, Embedding* embedding);
  /// All gap bounds satisfied by the given per-query-edge timestamps.
  bool GapsOk(const std::vector<Timestamp>& ets) const;

  void MapVertex(VertexId u, VertexId v) {
    vmap_[u] = v;
    mapped_vertices_ |= Bit(u);
  }
  void UnmapVertex(VertexId u) {
    mapped_vertices_ &= ~Bit(u);
    vmap_[u] = kInvalidVertex;
  }
  void MapEdge(EdgeId qe, EdgeId data_edge, Timestamp ts) {
    emap_[qe] = data_edge;
    ets_[qe] = ts;
    mapped_edges_ |= Bit(qe);
  }
  void UnmapEdge(EdgeId qe) {
    mapped_edges_ &= ~Bit(qe);
    emap_[qe] = kInvalidEdge;
  }

  QueryGraph query_;
  QueryDag dag_q_;
  QueryDag dag_r_;
  TcmConfig config_;
  const GraphT& g_;  // shared, owned by the stream context
  /// (edge label, label(u), label(v)) per query edge, for Relevant().
  std::vector<std::array<Label, 3>> feasible_sigs_;
  std::unique_ptr<BasicMaxMinIndex<GraphT>> filter_q_;
  std::unique_ptr<BasicMaxMinIndex<GraphT>> filter_r_;
  DcsIndex dcs_;

  // Scratch for UpdateStructures.
  std::vector<UvPair> touched_q_;
  std::vector<UvPair> touched_r_;
  /// A (query edge, data edge, orientation) pair whose DCS verdict must be
  /// re-evaluated. The data edge is captured by value: after a removal the
  /// update edge's slot is a tombstone, so the graph must not be re-read.
  struct Triple {
    EdgeId qe;
    TemporalEdge de;
    bool flip;
  };
  /// May hold a triple twice; the second evaluation is a no-op, since
  /// the first made the DCS agree with both filters.
  std::vector<Triple> triple_list_;

  // Backtracking state.
  MatchKind kind_ = MatchKind::kOccurred;
  bool timed_out_ = false;
  std::vector<VertexId> vmap_;
  std::vector<EdgeId> emap_;
  std::vector<Timestamp> ets_;
  Mask64 mapped_vertices_ = 0;
  Mask64 mapped_edges_ = 0;
  std::vector<std::pair<EdgeId, bool>> seeds_;  // scratch for FindMatches
  std::vector<FreeGroup> free_groups_;
  /// Per-alternative timestamps during free-group expansion, so the gap
  /// post-filter judges each expanded embedding by its own timestamps.
  std::vector<Timestamp> expand_ets_;
};

/// The canonical single-graph instantiation; compiled once in
/// tcm_engine.cpp (extern template keeps every includer's rebuild cheap).
using TcmEngine = BasicTcmEngine<TemporalGraph>;

}  // namespace tcsm

#include "core/tcm_engine-inl.h"

namespace tcsm {
extern template class BasicTcmEngine<TemporalGraph>;
}  // namespace tcsm

#endif  // TCSM_CORE_TCM_ENGINE_H_
