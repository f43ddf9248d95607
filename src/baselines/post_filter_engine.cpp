#include "baselines/post_filter_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "filter/maxmin_index.h"  // StaticFeasible

namespace tcsm {

PostFilterEngine::PostFilterEngine(const QueryGraph& query,
                                   const TemporalGraph& graph)
    : query_(query),
      dag_(QueryDag::BuildBestDag(query_)),
      g_(graph),
      dcs_(&query_, &dag_) {
  TCSM_CHECK(query_.Validate().ok());
  TCSM_CHECK(query_.directed() == g_.directed());
  vmap_.assign(query_.NumVertices(), kInvalidVertex);
  emap_.assign(query_.NumEdges(), kInvalidEdge);
  ets_.assign(query_.NumEdges(), 0);
  InitAbsence(query_);
}

void PostFilterEngine::ApplyTriples(const TemporalEdge& ed, bool inserting) {
  for (EdgeId qe = 0; qe < query_.NumEdges(); ++qe) {
    for (const bool flip : {false, true}) {
      if (!StaticFeasible(query_, g_, qe, ed, flip)) continue;
      if (inserting) {
        dcs_.Insert(qe, ed, flip);
      } else {
        dcs_.Remove(qe, ed, flip);
      }
    }
  }
}

void PostFilterEngine::OnEdgeInserted(const TemporalEdge& ed) {
  AbsenceArrival(ed);
  ApplyTriples(ed, /*inserting=*/true);
  FindMatches(ed, MatchKind::kOccurred);
}

void PostFilterEngine::OnEdgeExpiring(const TemporalEdge& ed) {
  FindMatches(ed, MatchKind::kExpired);
}

void PostFilterEngine::OnEdgeRemoved(const TemporalEdge& ed) {
  // StaticFeasible only reads labels, so the verdicts are identical before
  // and after the graph deletion.
  ApplyTriples(ed, /*inserting=*/false);
}

void PostFilterEngine::FindMatches(const TemporalEdge& ed, MatchKind kind) {
  kind_ = kind;
  timed_out_ = false;
  mapped_vertices_ = 0;
  std::fill(vmap_.begin(), vmap_.end(), kInvalidVertex);
  std::fill(emap_.begin(), emap_.end(), kInvalidEdge);

  dcs_.Seeds(ed, &seeds_);
  for (const auto& [qe, flip] : seeds_) {
    const QueryEdge& q = query_.Edge(qe);
    seed_edge_ = qe;
    vmap_[q.u] = flip ? ed.dst : ed.src;
    vmap_[q.v] = flip ? ed.src : ed.dst;
    mapped_vertices_ = Bit(q.u) | Bit(q.v);
    emap_[qe] = ed.id;
    ets_[qe] = ed.ts;
    ExtendVertices();
    mapped_vertices_ = 0;
    if (timed_out_) return;
  }
}

bool PostFilterEngine::ExtendVertices() {
  ++counters_.search_nodes;
  if (deadline_ != nullptr && deadline_->Expired()) {
    timed_out_ = true;
    return false;
  }
  if (static_cast<size_t>(PopCount(mapped_vertices_)) ==
      query_.NumVertices()) {
    // All vertices mapped: enumerate parallel-edge assignments for the
    // remaining query edges, then post-check the temporal order.
    unassigned_edges_.clear();
    for (EdgeId qe = 0; qe < query_.NumEdges(); ++qe) {
      if (qe != seed_edge_) unassigned_edges_.push_back(qe);
    }
    AssignEdges(0);
    return true;
  }
  // Extendable vertex with the fewest DCS candidates.
  const DcsIndex::Extension ext =
      dcs_.NextExtension(mapped_vertices_, vmap_);
  if (ext.candidates == nullptr || ext.candidates->empty()) return false;
  for (const auto& [w, cnt] : *ext.candidates) {
    (void)cnt;
    if (!dcs_.Admits(ext, w, mapped_vertices_, vmap_)) continue;
    vmap_[ext.u] = w;
    mapped_vertices_ |= Bit(ext.u);
    ExtendVertices();
    mapped_vertices_ &= ~Bit(ext.u);
    if (timed_out_) return false;
  }
  return true;
}

bool PostFilterEngine::AssignEdges(size_t edge_idx) {
  ++counters_.search_nodes;
  if (deadline_ != nullptr && deadline_->Expired()) {
    timed_out_ = true;
    return false;
  }
  if (edge_idx == unassigned_edges_.size()) {
    ReportIfTimeConstrained();
    return true;
  }
  const EdgeId qe = unassigned_edges_[edge_idx];
  const QueryEdge& q = query_.Edge(qe);
  const std::vector<ParallelEdge>* plist =
      dcs_.Parallel(qe, vmap_[q.u], vmap_[q.v]);
  if (plist == nullptr) return true;
  for (const ParallelEdge& cand : *plist) {
    emap_[qe] = cand.edge;
    ets_[qe] = cand.ts;
    if (!AssignEdges(edge_idx + 1)) return false;
  }
  return true;
}

void PostFilterEngine::ReportIfTimeConstrained() {
  // Post-filter: verify every ordered pair of the temporal order.
  for (EdgeId a = 0; a < query_.NumEdges(); ++a) {
    for (const uint32_t b : BitRange(query_.After(a))) {
      if (!(ets_[a] < ets_[b])) return;
    }
  }
  // Gap bounds, post-checked the same way (DESIGN.md §12).
  for (const GapConstraint& gc : query_.gaps()) {
    const Timestamp d = ets_[gc.e2] - ets_[gc.e1];
    if (d < gc.min_gap || d > gc.max_gap) return;
  }
  Embedding embedding;
  embedding.vertices = vmap_;
  embedding.edges = emap_;
  Report(embedding, kind_, 1);
}

size_t PostFilterEngine::StateMemoryBytes() const {
  // Per-query state only; the shared graph is accounted by the context.
  return dcs_.EstimateMemoryBytes();
}

}  // namespace tcsm
