#include "baselines/local_enum_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/memory_meter.h"
#include "filter/maxmin_index.h"  // StaticFeasible

namespace tcsm {

LocalEnumEngine::LocalEnumEngine(const QueryGraph& query,
                                 const TemporalGraph& graph)
    : query_(query), g_(graph) {
  TCSM_CHECK(query_.Validate().ok());
  TCSM_CHECK(query_.directed() == g_.directed());
  const size_t m = query_.NumEdges();
  order_from_.resize(m);
  for (EdgeId seed = 0; seed < m; ++seed) {
    std::vector<uint8_t> used(m, 0);
    used[seed] = 1;
    Mask64 covered = Bit(query_.Edge(seed).u) | Bit(query_.Edge(seed).v);
    auto& order = order_from_[seed];
    for (size_t step = 1; step < m; ++step) {
      EdgeId pick = kInvalidEdge;
      for (EdgeId e = 0; e < m; ++e) {
        if (used[e]) continue;
        const QueryEdge& qe = query_.Edge(e);
        if (HasBit(covered, qe.u) || HasBit(covered, qe.v)) {
          pick = e;
          break;
        }
      }
      TCSM_CHECK(pick != kInvalidEdge);
      used[pick] = 1;
      covered |= Bit(query_.Edge(pick).u) | Bit(query_.Edge(pick).v);
      order.push_back(pick);
    }
  }
  vmap_.assign(query_.NumVertices(), kInvalidVertex);
  emap_.assign(query_.NumEdges(), kInvalidEdge);
  ets_.assign(query_.NumEdges(), 0);
  InitAbsence(query_);
}

void LocalEnumEngine::OnEdgeInserted(const TemporalEdge& ed) {
  AbsenceArrival(ed);
  FindMatches(ed, MatchKind::kOccurred);
}

void LocalEnumEngine::OnEdgeExpiring(const TemporalEdge& ed) {
  FindMatches(ed, MatchKind::kExpired);
}

void LocalEnumEngine::FindMatches(const TemporalEdge& ed, MatchKind kind) {
  kind_ = kind;
  timed_out_ = false;
  for (EdgeId qe = 0; qe < query_.NumEdges(); ++qe) {
    for (const bool flip : {false, true}) {
      if (!StaticFeasible(query_, g_, qe, ed, flip)) continue;
      const QueryEdge& q = query_.Edge(qe);
      const VertexId img_u = flip ? ed.dst : ed.src;
      const VertexId img_v = flip ? ed.src : ed.dst;
      if (img_u == img_v) continue;
      order_ = &order_from_[qe];
      vmap_[q.u] = img_u;
      vmap_[q.v] = img_v;
      mapped_vertices_ = Bit(q.u) | Bit(q.v);
      mapped_edges_ = Bit(qe);
      emap_[qe] = ed.id;
      ets_[qe] = ed.ts;
      Extend(0);
      if (timed_out_) return;
    }
  }
}

void LocalEnumEngine::Extend(size_t step) {
  ++counters_.search_nodes;
  if (deadline_ != nullptr && deadline_->Expired()) {
    timed_out_ = true;
    return;
  }
  if (step == order_->size()) {
    // Post-check the temporal order on the complete embedding.
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
    return;
  }
  const EdgeId qe = (*order_)[step];
  const QueryEdge& q = query_.Edge(qe);
  const bool u_mapped = HasBit(mapped_vertices_, q.u);
  const bool v_mapped = HasBit(mapped_vertices_, q.v);
  TCSM_CHECK(u_mapped || v_mapped);
  const VertexId anchor = u_mapped ? vmap_[q.u] : vmap_[q.v];
  // Candidates live in the anchor's (q.elabel, other-endpoint-label)
  // bucket; any entry outside it would fail TryAssign's label checks.
  const Label want = query_.VertexLabel(u_mapped ? q.v : q.u);
  for (const AdjEntry& adj : g_.NeighborsMatching(anchor, q.elabel, want)) {
    ++counters_.adj_entries_scanned;
    const TemporalEdge& ed = g_.Edge(adj.edge);
    if (u_mapped) {
      TryAssign(step, qe, ed, anchor, ed.Other(anchor));
    } else {
      TryAssign(step, qe, ed, ed.Other(anchor), anchor);
    }
    if (timed_out_) return;
  }
}

void LocalEnumEngine::TryAssign(size_t step, EdgeId qe,
                                const TemporalEdge& ed, VertexId a,
                                VertexId b) {
  const QueryEdge& q = query_.Edge(qe);
  if (q.elabel != ed.label) return;
  if (query_.VertexLabel(q.u) != g_.VertexLabel(a) ||
      query_.VertexLabel(q.v) != g_.VertexLabel(b)) {
    return;
  }
  if (query_.directed() && !(a == ed.src && b == ed.dst)) return;
  ++counters_.adj_entries_matched;
  const bool u_mapped = HasBit(mapped_vertices_, q.u);
  const bool v_mapped = HasBit(mapped_vertices_, q.v);
  if (u_mapped && vmap_[q.u] != a) return;
  if (v_mapped && vmap_[q.v] != b) return;
  // Injectivity, read off the partial mapping: a data vertex or edge
  // already imaged by a mapped position cannot be taken again.
  if (!u_mapped && MappedTo(mapped_vertices_, vmap_, a)) return;
  if (!v_mapped && MappedTo(mapped_vertices_, vmap_, b)) return;
  if (!u_mapped && !v_mapped && a == b) return;
  if (HasBit(mapped_edges_, qe)) return;
  if (MappedTo(mapped_edges_, emap_, ed.id)) return;

  if (!u_mapped) {
    vmap_[q.u] = a;
    mapped_vertices_ |= Bit(q.u);
  }
  if (!v_mapped) {
    vmap_[q.v] = b;
    mapped_vertices_ |= Bit(q.v);
  }
  emap_[qe] = ed.id;
  ets_[qe] = ed.ts;
  mapped_edges_ |= Bit(qe);

  Extend(step + 1);

  mapped_edges_ &= ~Bit(qe);
  if (!v_mapped) mapped_vertices_ &= ~Bit(q.v);
  if (!u_mapped) mapped_vertices_ &= ~Bit(q.u);
}

size_t LocalEnumEngine::StateMemoryBytes() const {
  // Index-free: only the precomputed matching orders and scratch vectors.
  size_t bytes = VectorBytes(vmap_) + VectorBytes(emap_) + VectorBytes(ets_);
  for (const auto& order : order_from_) bytes += VectorBytes(order);
  return bytes;
}

}  // namespace tcsm
