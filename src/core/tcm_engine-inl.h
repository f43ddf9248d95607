// Member definitions of BasicTcmEngine<GraphT> (template over the graph
// type — see tcm_engine.h). Included at the bottom of tcm_engine.h; the
// canonical <TemporalGraph> instantiation is compiled once in
// tcm_engine.cpp, the sharded-view one in src/shard/.
#ifndef TCSM_CORE_TCM_ENGINE_INL_H_
#define TCSM_CORE_TCM_ENGINE_INL_H_

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace tcsm {
namespace tcm_internal {

/// Accumulates elapsed nanoseconds into an EngineCounters field on scope
/// exit — the engine's only timing mechanism (DESIGN.md §11).
class ScopedNs {
 public:
  explicit ScopedNs(uint64_t* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~ScopedNs() { *sink_ += DurationNs(start_); }

 private:
  uint64_t* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tcm_internal

template <typename GraphT>
BasicTcmEngine<GraphT>::BasicTcmEngine(const QueryGraph& query,
                                       const GraphT& graph, TcmConfig config)
    : query_(query),
      dag_q_(QueryDag::BuildBestDag(query_)),
      dag_r_(dag_q_.Reversed()),
      config_(config),
      g_(graph),
      dcs_(&query_, &dag_q_) {  // DCS is built over the forward DAG (SymBi)
  TCSM_CHECK(query_.Validate().ok());
  TCSM_CHECK(query_.directed() == g_.directed());
  if (config_.use_tc_filter) {
    filter_q_ = std::make_unique<BasicMaxMinIndex<GraphT>>(&g_, &dag_q_);
    filter_r_ = std::make_unique<BasicMaxMinIndex<GraphT>>(&g_, &dag_r_);
  }
  vmap_.assign(query_.NumVertices(), kInvalidVertex);
  emap_.assign(query_.NumEdges(), kInvalidEdge);
  ets_.assign(query_.NumEdges(), 0);
  for (EdgeId qe = 0; qe < query_.NumEdges(); ++qe) {
    const QueryEdge& q = query_.Edge(qe);
    const std::array<Label, 3> sig{q.elabel, query_.VertexLabel(q.u),
                                   query_.VertexLabel(q.v)};
    if (std::find(feasible_sigs_.begin(), feasible_sigs_.end(), sig) ==
        feasible_sigs_.end()) {
      feasible_sigs_.push_back(sig);
    }
  }
  InitAbsence(query_);
}

template <typename GraphT>
std::string BasicTcmEngine<GraphT>::name() const {
  if (!config_.use_tc_filter) return "TCM-NoFilter";
  if (!config_.prune_no_relation && !config_.prune_uniform &&
      !config_.prune_failing_set) {
    return "TCM-Pruning";
  }
  return "TCM";
}

template <typename GraphT>
bool BasicTcmEngine<GraphT>::Relevant(const TemporalEdge& ed) const {
  // Equivalent to "exists (qe, flip) with StaticFeasible(qe, ed, flip)",
  // but one pass over the deduplicated query-edge label signatures.
  const Label ls = g_.VertexLabel(ed.src);
  const Label ld = g_.VertexLabel(ed.dst);
  const bool undirected = !query_.directed();
  for (const auto& sig : feasible_sigs_) {
    if (sig[0] != ed.label) continue;
    if (sig[1] == ls && sig[2] == ld) return true;
    if (undirected && sig[1] == ld && sig[2] == ls) return true;
  }
  return false;
}

template <typename GraphT>
void BasicTcmEngine<GraphT>::OnEdgeInserted(const TemporalEdge& ed) {
  // Absence predicates watch every arrival — an edge that matches no query
  // edge can still violate (or close) an open absence window — so the
  // deferral hook runs before the relevance early-out.
  AbsenceArrival(ed);
  // A statically infeasible edge cannot dirty a filter entry, enter the
  // DCS, or seed a match, so the whole event is a no-op for this query.
  // In multi-query deployments most events are irrelevant to most
  // patterns; this keeps per-engine work proportional to relevance while
  // the shared graph update stays O(1) per event.
  if (!Relevant(ed)) return;
  UpdateStructures(ed, /*inserting=*/true);
  FindMatches(ed, MatchKind::kOccurred);
}

template <typename GraphT>
void BasicTcmEngine<GraphT>::OnEdgeExpiring(const TemporalEdge& ed) {
  // Expiring embeddings are those containing `ed`; enumerate them against
  // the pre-deletion state. Index updates follow in OnEdgeRemoved.
  if (!Relevant(ed)) return;
  FindMatches(ed, MatchKind::kExpired);
}

template <typename GraphT>
void BasicTcmEngine<GraphT>::OnEdgeRemoved(const TemporalEdge& ed) {
  if (!Relevant(ed)) return;
  UpdateStructures(ed, /*inserting=*/false);
}

template <typename GraphT>
void BasicTcmEngine<GraphT>::UpdateStructures(const TemporalEdge& ed,
                                              bool inserting) {
  const tcm_internal::ScopedNs timer(&counters_.update_ns);
  touched_q_.clear();
  touched_r_.clear();
  if (config_.use_tc_filter) {
    if (inserting) {
      filter_q_->OnEdgeInserted(ed, &touched_q_);
      filter_r_->OnEdgeInserted(ed, &touched_r_);
    } else {
      filter_q_->OnEdgeRemoved(ed, &touched_q_);
      filter_r_->OnEdgeRemoved(ed, &touched_r_);
    }
  }

  triple_list_.clear();
  auto add_triple = [&](EdgeId qe, const TemporalEdge& de, bool flip) {
    if (!StaticFeasible(query_, g_, qe, de, flip)) return false;
    // Capture the record: after a removal the update edge is only a
    // tombstone in the graph and must not be re-read later.
    triple_list_.push_back(Triple{qe, de, flip});
    return true;
  };

  // The update edge's own pairs.
  for (EdgeId qe = 0; qe < query_.NumEdges(); ++qe) {
    for (const bool flip : {false, true}) add_triple(qe, ed, flip);
  }

  // Pairs whose filter gate changed: edges entering u, incident to v
  // (the matchability of (e, e') is read at the child endpoint of e).
  // Only entries whose (edge label, neighbor label) signature equals qe's
  // can pass StaticFeasible, so the scan visits exactly that bucket.
  auto rescan = [&](const QueryDag& dag, const std::vector<UvPair>& touched) {
    for (const UvPair& uv : touched) {
      for (const EdgeId qe : dag.ParentEdges(uv.u)) {
        const QueryEdge& q = query_.Edge(qe);
        const Label nbr_label = query_.VertexLabel(q.u == uv.u ? q.v : q.u);
        // Pre-filter: only flip == false survives StaticFeasible on
        // directed graphs, which pins the data edge's direction at v
        // (v images the child endpoint uv.u). A bucket holding no entry
        // of that direction cannot contribute a triple.
        if (!g_.MayHaveMatching(uv.v, q.elabel, nbr_label,
                                /*want_out=*/uv.u == q.u)) {
          continue;
        }
        for (const AdjEntry& a :
             g_.NeighborsMatching(uv.v, q.elabel, nbr_label)) {
          ++counters_.adj_entries_scanned;
          // EdgeNear: the record read stays local to uv.v's shard under a
          // sharded view (the scan came off uv.v's adjacency).
          const TemporalEdge& de = g_.EdgeNear(uv.v, a.edge);
          // Choose the orientation that maps the child endpoint onto v.
          const bool flip = (uv.u == q.u) ? (de.src != uv.v)
                                          : (de.dst != uv.v);
          if (add_triple(qe, de, flip)) ++counters_.adj_entries_matched;
        }
      }
    }
  };
  if (config_.use_tc_filter) {
    rescan(dag_q_, touched_q_);
    rescan(dag_r_, touched_r_);
  }

  for (const Triple& t : triple_list_) {
    const TemporalEdge& de = t.de;
    // AliveEdge: answered from the captured record so a sharded view can
    // route by endpoint ownership instead of the bare id.
    const bool alive = g_.AliveEdge(de);
    const bool matchable =
        alive && (!config_.use_tc_filter ||
                  (filter_q_->CheckMatchable(t.qe, de, t.flip) &&
                   filter_r_->CheckMatchable(t.qe, de, t.flip)));
    const bool present = dcs_.Contains(t.qe, de, t.flip);
    if (matchable && !present) {
      dcs_.Insert(t.qe, de, t.flip);
    } else if (!matchable && present) {
      dcs_.Remove(t.qe, de, t.flip);
    }
  }

  // Drain last: CheckMatchable above computes missing filter entries
  // lazily, and those scans belong to this event's totals.
  if (config_.use_tc_filter) {
    filter_q_->DrainScanCounters(&counters_.adj_entries_scanned,
                                 &counters_.adj_entries_matched);
    filter_r_->DrainScanCounters(&counters_.adj_entries_scanned,
                                 &counters_.adj_entries_matched);
  }
}

template <typename GraphT>
void BasicTcmEngine<GraphT>::FindMatches(const TemporalEdge& ed,
                                         MatchKind kind) {
  const tcm_internal::ScopedNs timer(&counters_.search_ns);
  kind_ = kind;
  timed_out_ = false;
  mapped_vertices_ = 0;
  mapped_edges_ = 0;
  free_groups_.clear();
  std::fill(vmap_.begin(), vmap_.end(), kInvalidVertex);
  std::fill(emap_.begin(), emap_.end(), kInvalidEdge);

  dcs_.Seeds(ed, &seeds_);
  for (const auto& [qe, flip] : seeds_) {
    const QueryEdge& q = query_.Edge(qe);
    MapVertex(q.u, flip ? ed.dst : ed.src);
    MapVertex(q.v, flip ? ed.src : ed.dst);
    MapEdge(qe, ed.id, ed.ts);
    Extend();
    UnmapEdge(qe);
    UnmapVertex(q.v);
    UnmapVertex(q.u);
    if (timed_out_) return;
  }
}

template <typename GraphT>
auto BasicTcmEngine<GraphT>::Extend() -> SearchResult {
  ++counters_.search_nodes;
  if (deadline_ != nullptr && deadline_->Expired()) {
    timed_out_ = true;
    return SearchResult{true, 0};
  }
  if (static_cast<size_t>(PopCount(mapped_edges_)) == query_.NumEdges() &&
      static_cast<size_t>(PopCount(mapped_vertices_)) ==
          query_.NumVertices()) {
    ReportCurrent();
    return SearchResult{true, 0};
  }
  // Edge-priority matching: an unmapped query edge with both endpoints
  // mapped is matched first (Algorithm 4 lines 9-14).
  for (EdgeId qe = 0; qe < query_.NumEdges(); ++qe) {
    if (HasBit(mapped_edges_, qe)) continue;
    const QueryEdge& q = query_.Edge(qe);
    if (HasBit(mapped_vertices_, q.u) && HasBit(mapped_vertices_, q.v)) {
      return ExtendEdge(qe);
    }
  }
  return ExtendVertex();
}

template <typename GraphT>
auto BasicTcmEngine<GraphT>::ExtendEdge(EdgeId qe) -> SearchResult {
  const QueryEdge& q = query_.Edge(qe);
  // When gap pruning is on, gap partners count as temporally related:
  // their mapped timestamps constrained this window (below), and an
  // unmapped partner still cares which alternative is chosen — which
  // keeps technique 1 from grouping candidates a gap bound would later
  // tell apart, and technique 2's uniformity test from firing (a gap
  // partner is in neither order mask). GapRelated is empty for queries
  // without gaps, so this is the pre-existing behavior there.
  const Mask64 related_all =
      query_.Related(qe) |
      (config_.prune_gap_bounds ? query_.GapRelated(qe) : 0);
  const Mask64 rplus = related_all & mapped_edges_;
  const std::vector<ParallelEdge>* plist =
      dcs_.Parallel(qe, vmap_[q.u], vmap_[q.v]);
  if (plist == nullptr || plist->empty()) {
    return SearchResult{false, rplus};  // leaf: TF = R+_M(e)  (Def. V.3)
  }

  // ECM(e): candidates within the inclusive [lo, hi] window imposed by the
  // mapped temporally related edges (Definition V.2; the order bounds are
  // strict, and timestamps are integers bounded away from the sentinels,
  // so ±1 converts them to inclusive bounds), intersected with the gap
  // windows against mapped gap partners when gap pruning is on
  // (DESIGN.md §12).
  Timestamp lo = kMinusInfinity;
  Timestamp hi = kPlusInfinity;
  for (const uint32_t i : BitRange(query_.Before(qe) & mapped_edges_)) {
    lo = std::max(lo, ets_[i] + 1);
  }
  for (const uint32_t i : BitRange(query_.After(qe) & mapped_edges_)) {
    hi = std::min(hi, ets_[i] - 1);
  }
  if (config_.prune_gap_bounds && !query_.gaps().empty()) {
    for (const GapConstraint& gc : query_.gaps()) {
      if (gc.e2 == qe && HasBit(mapped_edges_, gc.e1)) {
        lo = std::max(lo, ets_[gc.e1] + gc.min_gap);
        hi = std::min(hi, ets_[gc.e1] + gc.max_gap);
      } else if (gc.e1 == qe && HasBit(mapped_edges_, gc.e2)) {
        lo = std::max(lo, ets_[gc.e2] - gc.max_gap);
        hi = std::min(hi, ets_[gc.e2] - gc.min_gap);
      }
    }
  }
  const auto begin = std::lower_bound(
      plist->begin(), plist->end(), lo,
      [](const ParallelEdge& p, Timestamp t) { return p.ts < t; });
  const auto end = std::upper_bound(
      begin, plist->end(), hi,
      [](Timestamp t, const ParallelEdge& p) { return t < p.ts; });
  if (begin >= end) return SearchResult{false, rplus};
  const size_t first = static_cast<size_t>(begin - plist->begin());
  const size_t count = static_cast<size_t>(end - begin);

  const Mask64 rminus = related_all & ~mapped_edges_;

  // Pruning technique 1: no temporally related edge remains — all
  // candidates yield identical subtrees.
  if (config_.prune_no_relation && rminus == 0) {
    const ParallelEdge chosen = (*plist)[first];
    const bool grouped = count > 1;
    if (grouped) {
      FreeGroup group;
      group.qe = qe;
      group.alternatives.assign(plist->begin() + first + 1, end);
      free_groups_.push_back(std::move(group));
    }
    MapEdge(qe, chosen.edge, chosen.ts);
    const SearchResult res = Extend();
    UnmapEdge(qe);
    if (grouped) free_groups_.pop_back();
    if (res.found) return SearchResult{true, 0};
    return SearchResult{false, res.failing | rplus};
  }

  const bool all_after =
      rminus != 0 && (rminus & ~query_.After(qe)) == 0;  // e ≺ all remaining
  const bool all_before =
      rminus != 0 && (rminus & ~query_.Before(qe)) == 0;
  const bool uniform = config_.prune_uniform && (all_after || all_before);
  // Chronological for e ≺ e' (smaller timestamps are weaker constraints),
  // reverse chronological for e' ≺ e.
  const bool descending = uniform && all_before;

  bool found_any = false;
  bool skipped_siblings = false;
  Mask64 agg = 0;
  for (size_t k = 0; k < count; ++k) {
    const size_t idx = descending ? first + count - 1 - k : first + k;
    const ParallelEdge cand = (*plist)[idx];
    MapEdge(qe, cand.edge, cand.ts);
    const SearchResult res = Extend();
    UnmapEdge(qe);
    if (timed_out_) return SearchResult{true, 0};
    if (res.found) {
      found_any = true;
      continue;
    }
    const Mask64 child_tf = res.failing | rplus;
    if (config_.prune_failing_set && !HasBit(child_tf, qe)) {
      // Def. V.3 case 2.1: the failure did not involve e's mapping, so all
      // sibling candidates fail identically.
      agg = child_tf;
      if (found_any) break;
      return SearchResult{false, agg};
    }
    agg |= child_tf;
    if (uniform) {
      // Pruning technique 2: any remaining candidate is strictly harder.
      if (k + 1 < count) skipped_siblings = true;
      break;
    }
  }
  if (found_any) return SearchResult{true, 0};
  if (skipped_siblings) agg |= Bit(qe);  // conservative: skip depended on e
  return SearchResult{false, agg};
}

template <typename GraphT>
auto BasicTcmEngine<GraphT>::ExtendVertex() -> SearchResult {
  // SymBi's adaptive matching order (DcsIndex::NextExtension).
  const DcsIndex::Extension ext =
      dcs_.NextExtension(mapped_vertices_, vmap_);
  if (ext.candidates == nullptr || ext.candidates->empty()) {
    // Structural failure: candidate vertex sets are independent of mapped
    // timestamps, so this failure persists across sibling edge candidates.
    return SearchResult{false, 0};
  }

  bool found_any = false;
  Mask64 agg = 0;
  for (const auto& [w, cnt] : *ext.candidates) {
    (void)cnt;
    if (!dcs_.Admits(ext, w, mapped_vertices_, vmap_)) continue;
    MapVertex(ext.u, w);
    const SearchResult res = Extend();
    UnmapVertex(ext.u);
    if (timed_out_) return SearchResult{true, 0};
    if (res.found) {
      found_any = true;
    } else {
      agg |= res.failing;
    }
  }
  if (found_any) return SearchResult{true, 0};
  return SearchResult{false, agg};
}

template <typename GraphT>
void BasicTcmEngine<GraphT>::ReportCurrent() {
  Embedding embedding;
  embedding.vertices = vmap_;
  embedding.edges = emap_;
  // With gap pruning off, gaps are enforced here on complete embeddings
  // (the ablation baseline). With it on, every mapped edge already passed
  // a gap-tightened window, so complete embeddings need no re-check.
  const bool gap_postcheck =
      !config_.prune_gap_bounds && !query_.gaps().empty();
  if (free_groups_.empty()) {
    if (gap_postcheck && !GapsOk(ets_)) return;
    Report(embedding, kind_, 1);
    return;
  }
  // Per-embedding expansion: requested by the sink, or forced — absence
  // suppression depends on the concrete edge images, and the gap
  // post-filter must judge each parallel alternative by its own timestamp
  // (in pruning mode the grouped window already satisfies the gaps, so
  // the multiplicity path stays valid there).
  if (absence_active() || gap_postcheck ||
      (sink_ != nullptr && sink_->wants_each_embedding())) {
    expand_ets_ = ets_;
    ExpandGroups(0, &embedding);
    return;
  }
  uint64_t multiplicity = 1;
  for (const FreeGroup& group : free_groups_) {
    multiplicity *= 1 + group.alternatives.size();
  }
  Report(embedding, kind_, multiplicity);
}

template <typename GraphT>
void BasicTcmEngine<GraphT>::ExpandGroups(size_t group_idx,
                                          Embedding* embedding) {
  if (group_idx == free_groups_.size()) {
    if (!config_.prune_gap_bounds && !query_.gaps().empty() &&
        !GapsOk(expand_ets_)) {
      return;
    }
    Report(*embedding, kind_, 1);
    return;
  }
  const FreeGroup& group = free_groups_[group_idx];
  const EdgeId saved = embedding->edges[group.qe];
  const Timestamp saved_ts = expand_ets_[group.qe];
  ExpandGroups(group_idx + 1, embedding);
  for (const ParallelEdge& alt : group.alternatives) {
    embedding->edges[group.qe] = alt.edge;
    expand_ets_[group.qe] = alt.ts;
    ExpandGroups(group_idx + 1, embedding);
  }
  embedding->edges[group.qe] = saved;
  expand_ets_[group.qe] = saved_ts;
}

template <typename GraphT>
bool BasicTcmEngine<GraphT>::GapsOk(const std::vector<Timestamp>& ets) const {
  for (const GapConstraint& gc : query_.gaps()) {
    const Timestamp d = ets[gc.e2] - ets[gc.e1];
    if (d < gc.min_gap || d > gc.max_gap) return false;
  }
  return true;
}

template <typename GraphT>
size_t BasicTcmEngine<GraphT>::StateMemoryBytes() const {
  // Per-query state only; the shared graph is accounted by the context.
  size_t bytes = dcs_.EstimateMemoryBytes();
  if (filter_q_ != nullptr) bytes += filter_q_->EstimateMemoryBytes();
  if (filter_r_ != nullptr) bytes += filter_r_->EstimateMemoryBytes();
  return bytes;
}

}  // namespace tcsm

#endif  // TCSM_CORE_TCM_ENGINE_INL_H_
