#include "baselines/timing_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/memory_meter.h"
#include "filter/maxmin_index.h"  // StaticFeasible

namespace tcsm {

TimingEngine::TimingEngine(const QueryGraph& query,
                           const TemporalGraph& graph, TimingConfig config)
    : query_(query), config_(config), g_(graph) {
  TCSM_CHECK(query_.Validate().ok());
  TCSM_CHECK(query_.directed() == g_.directed());

  // Linear extension of ≺ preferring edges that touch the covered prefix
  // (connected prefixes keep joins selective).
  const size_t m = query_.NumEdges();
  std::vector<uint8_t> chosen(m, 0);
  Mask64 chosen_mask = 0;
  Mask64 covered_vertices = 0;
  for (size_t step = 0; step < m; ++step) {
    EdgeId pick = kInvalidEdge;
    bool pick_touches = false;
    for (EdgeId e = 0; e < m; ++e) {
      if (chosen[e]) continue;
      if ((query_.Before(e) & ~chosen_mask) != 0) continue;  // preds first
      const QueryEdge& q = query_.Edge(e);
      const bool touches = step == 0 || HasBit(covered_vertices, q.u) ||
                           HasBit(covered_vertices, q.v);
      if (pick == kInvalidEdge || (touches && !pick_touches)) {
        pick = e;
        pick_touches = touches;
        if (touches) break;  // first touching edge in id order
      }
    }
    TCSM_CHECK(pick != kInvalidEdge && "order must be a strict partial order");
    chosen[pick] = 1;
    chosen_mask |= Bit(pick);
    covered_vertices |= Bit(query_.Edge(pick).u) | Bit(query_.Edge(pick).v);
    order_.push_back(pick);
  }

  pos_of_edge_.assign(m, 0);
  for (size_t i = 0; i < m; ++i) pos_of_edge_[order_[i]] = i;

  covered_.resize(m);
  vslot_.resize(m);
  shared_.resize(m);
  pred_positions_.resize(m);
  std::vector<VertexId> cov;
  std::vector<int8_t> slot(query_.NumVertices(), -1);
  for (size_t i = 0; i < m; ++i) {
    const QueryEdge& q = query_.Edge(order_[i]);
    for (const VertexId w : {q.u, q.v}) {
      if (slot[w] < 0) {
        slot[w] = static_cast<int8_t>(cov.size());
        cov.push_back(w);
      }
    }
    covered_[i] = cov;
    vslot_[i] = slot;
    for (size_t j = 0; j < i; ++j) {
      if (query_.Precedes(order_[j], order_[i])) {
        pred_positions_[i].push_back(j);
      }
    }
  }
  // Endpoints of order_[i] already covered by the previous level (the join
  // attributes of the prefix join).
  for (size_t i = 1; i < m; ++i) {
    const QueryEdge& q = query_.Edge(order_[i]);
    for (const VertexId w : {q.u, q.v}) {
      if (vslot_[i - 1][w] >= 0) shared_[i].push_back(w);
    }
  }

  levels_.resize(m);
  feasible_live_.resize(m);
  InitAbsence(query_);
}

uint64_t TimingEngine::JoinKeyOfRecord(size_t level, const Record& rec) const {
  if (level + 1 >= order_.size()) return 0;
  const auto& sh = shared_[level + 1];
  VertexId a = kInvalidVertex;
  VertexId b = kInvalidVertex;
  if (!sh.empty()) a = rec.vimg[static_cast<size_t>(vslot_[level][sh[0]])];
  if (sh.size() > 1) b = rec.vimg[static_cast<size_t>(vslot_[level][sh[1]])];
  return PackPair(a, b);
}

uint64_t TimingEngine::JoinKeyOfEdge(size_t level, VertexId img_u,
                                     VertexId img_v) const {
  // `level` is the position of the new edge; key against level-1 records.
  const auto& sh = shared_[level];
  const QueryEdge& q = query_.Edge(order_[level]);
  auto image_of = [&](VertexId qv) { return qv == q.u ? img_u : img_v; };
  VertexId a = kInvalidVertex;
  VertexId b = kInvalidVertex;
  if (!sh.empty()) a = image_of(sh[0]);
  if (sh.size() > 1) b = image_of(sh[1]);
  return PackPair(a, b);
}

void TimingEngine::OnEdgeInserted(const TemporalEdge& ed) {
  AbsenceArrival(ed);
  for (size_t i = 0; i < order_.size(); ++i) {
    const EdgeId qe = order_[i];
    bool any_feasible = false;
    for (const bool flip : {false, true}) {
      if (!StaticFeasible(query_, g_, qe, ed, flip)) continue;
      any_feasible = true;
      if (overflowed_) break;
      if (i == 0) {
        TryExtend(0, nullptr, ed, flip);
        continue;
      }
      const auto [img_u, img_v] = ImagesOf(ed, flip);
      Level& prev = levels_[i - 1];
      if (shared_[i].empty()) {
        // Cartesian join: every record of the previous level qualifies.
        // (Authentically expensive; rare for connected prefixes.)
        std::vector<uint64_t> pids;
        pids.reserve(prev.records.size());
        for (const auto& [pid, rec] : prev.records) pids.push_back(pid);
        for (const uint64_t pid : pids) {
          auto it = prev.records.find(pid);
          if (it != prev.records.end()) TryExtend(i, &it->second, ed, flip);
          if (overflowed_) break;
        }
      } else {
        auto jit = prev.join_index.find(JoinKeyOfEdge(i, img_u, img_v));
        if (jit == prev.join_index.end()) continue;
        // Compact stale pids in place while joining.
        auto& pids = jit->second;
        size_t w = 0;
        for (size_t r = 0; r < pids.size(); ++r) {
          auto it = prev.records.find(pids[r]);
          if (it == prev.records.end()) continue;  // lazily evicted
          pids[w++] = pids[r];
          // Snapshot guard: only join with records that existed before
          // this arrival (newer ones already contain `ed`; extending them
          // with `ed` again would fail edge injectivity anyway).
          TryExtend(i, &it->second, ed, flip);
          if (overflowed_) break;
        }
        pids.resize(w);
      }
    }
    if (any_feasible) feasible_live_[i].insert(ed.id);
    if (overflowed_) return;
  }
}

void TimingEngine::TryExtend(size_t level, const Record* rec,
                             const TemporalEdge& ed, bool flip) {
  if (overflowed_) return;
  if (deadline_ != nullptr && deadline_->Expired()) {
    overflowed_ = true;  // treat as incomplete
    return;
  }
  ++counters_.search_nodes;
  const EdgeId qe = order_[level];
  const QueryEdge& q = query_.Edge(qe);
  const auto [img_u, img_v] = ImagesOf(ed, flip);
  if (img_u == img_v) return;

  Record next;
  if (level == 0) {
    next.vimg.resize(covered_[0].size());
    next.vimg[static_cast<size_t>(vslot_[0][q.u])] = img_u;
    next.vimg[static_cast<size_t>(vslot_[0][q.v])] = img_v;
    next.eimg.push_back(ed.id);
  } else {
    // Endpoint consistency with the prefix + vertex injectivity.
    const auto& pslot = vslot_[level - 1];
    for (const auto& [qv, img] :
         {std::make_pair(q.u, img_u), std::make_pair(q.v, img_v)}) {
      if (pslot[qv] >= 0) {
        if (rec->vimg[static_cast<size_t>(pslot[qv])] != img) return;
      } else {
        for (const VertexId existing : rec->vimg) {
          if (existing == img) return;
        }
      }
    }
    // Edge injectivity.
    for (const EdgeId existing : rec->eimg) {
      if (existing == ed.id) return;
    }
    // Temporal order against ≺-predecessors (all in the prefix, since
    // order_ is a linear extension).
    for (const size_t j : pred_positions_[level]) {
      if (!(g_.Edge(rec->eimg[j]).ts < ed.ts)) return;
    }
    // Build the extended record in the level's layout.
    next.vimg.assign(covered_[level].size(), kInvalidVertex);
    std::copy(rec->vimg.begin(), rec->vimg.end(), next.vimg.begin());
    next.vimg[static_cast<size_t>(vslot_[level][q.u])] = img_u;
    next.vimg[static_cast<size_t>(vslot_[level][q.v])] = img_v;
    next.eimg = rec->eimg;
    next.eimg.push_back(ed.id);
  }
  Store(level, std::move(next));
}

void TimingEngine::Store(size_t level, Record rec) {
  if (total_records_ >= config_.max_records) {
    overflowed_ = true;
    return;
  }
  const uint64_t pid = next_pid_++;
  Level& lv = levels_[level];
  for (const EdgeId e : rec.eimg) lv.by_edge[e].push_back(pid);
  if (level + 1 < order_.size() && !shared_[level + 1].empty()) {
    lv.join_index[JoinKeyOfRecord(level, rec)].push_back(pid);
  }
  const bool complete = level + 1 == order_.size();
  if (complete) ReportRecord(rec, MatchKind::kOccurred);

  const Record& stored =
      lv.records.emplace(pid, std::move(rec)).first->second;
  ++total_records_;
  if (complete) return;

  // Cascade: extend with existing live edges for the next position.
  const size_t nxt = level + 1;
  const EdgeId qe = order_[nxt];
  const QueryEdge& q = query_.Edge(qe);
  const auto& slot = vslot_[level];
  const bool u_cov = slot[q.u] >= 0;
  const bool v_cov = slot[q.v] >= 0;
  // Copy: `stored` may move if the records map rehashes during recursion.
  const Record snapshot = stored;
  if (u_cov || v_cov) {
    const VertexId anchor_qv = u_cov ? q.u : q.v;
    const VertexId anchor = snapshot.vimg[static_cast<size_t>(slot[anchor_qv])];
    // Candidates live in the anchor's (qe label, other-endpoint-label)
    // bucket; the graph is not mutated during matching, so the bucket list
    // is stable.
    const VertexId other_qv = (anchor_qv == q.u) ? q.v : q.u;
    for (const AdjEntry& a : g_.NeighborsMatching(
             anchor, q.elabel, query_.VertexLabel(other_qv))) {
      ++counters_.adj_entries_scanned;
      const TemporalEdge& de = g_.Edge(a.edge);
      // Orientation mapping the anchor endpoint onto `anchor`.
      const bool flip = (anchor_qv == q.u) ? (de.src != anchor)
                                           : (de.dst != anchor);
      if (!StaticFeasible(query_, g_, qe, de, flip)) continue;
      ++counters_.adj_entries_matched;
      TryExtend(nxt, &snapshot, de, flip);
      if (overflowed_) return;
    }
  } else {
    // Disconnected next edge: try every live feasible data edge.
    for (const EdgeId deid : feasible_live_[nxt]) {
      const TemporalEdge& de = g_.Edge(deid);
      for (const bool flip : {false, true}) {
        if (!StaticFeasible(query_, g_, qe, de, flip)) continue;
        TryExtend(nxt, &snapshot, de, flip);
        if (overflowed_) return;
      }
    }
  }
}

void TimingEngine::ReportRecord(const Record& rec, MatchKind kind) {
  // Gap bounds, post-checked on the complete record (DESIGN.md §12). The
  // record's edges are all live in both paths — occurred trivially,
  // expired because this runs from OnEdgeExpiring's pre-deletion phase —
  // so reading their timestamps from the graph is safe.
  for (const GapConstraint& gc : query_.gaps()) {
    const Timestamp d = g_.Edge(rec.eimg[pos_of_edge_[gc.e2]]).ts -
                        g_.Edge(rec.eimg[pos_of_edge_[gc.e1]]).ts;
    if (d < gc.min_gap || d > gc.max_gap) return;
  }
  Embedding embedding;
  embedding.vertices.assign(query_.NumVertices(), kInvalidVertex);
  embedding.edges.assign(query_.NumEdges(), kInvalidEdge);
  const size_t last = order_.size() - 1;
  for (size_t s = 0; s < covered_[last].size(); ++s) {
    embedding.vertices[covered_[last][s]] = rec.vimg[s];
  }
  for (size_t i = 0; i < order_.size(); ++i) {
    embedding.edges[order_[i]] = rec.eimg[i];
  }
  Report(embedding, kind, 1);
}

void TimingEngine::EraseRecord(size_t level, uint64_t pid) {
  Level& lv = levels_[level];
  auto it = lv.records.find(pid);
  if (it == lv.records.end()) return;
  lv.records.erase(it);
  --total_records_;
}

void TimingEngine::OnEdgeExpiring(const TemporalEdge& ed) {
  const EdgeId id = ed.id;

  // Report expiring complete embeddings, then evict at every level. This
  // hook runs while the edge is still live (two-phase expiry, DESIGN.md
  // §3), and eviction only touches materialized records — nothing here
  // may read g_.Edge(id) after the context removes the edge, since its
  // slot is reclaimed at the next insertion (DESIGN.md §7).
  const size_t last = order_.size() - 1;
  {
    Level& lv = levels_[last];
    auto bit = lv.by_edge.find(id);
    if (bit != lv.by_edge.end()) {
      for (const uint64_t pid : bit->second) {
        auto it = lv.records.find(pid);
        if (it == lv.records.end()) continue;
        ReportRecord(it->second, MatchKind::kExpired);
      }
    }
  }
  for (size_t level = 0; level < levels_.size(); ++level) {
    Level& lv = levels_[level];
    auto bit = lv.by_edge.find(id);
    if (bit == lv.by_edge.end()) continue;
    for (const uint64_t pid : bit->second) EraseRecord(level, pid);
    lv.by_edge.erase(bit);
  }
  for (auto& fl : feasible_live_) fl.erase(id);
}

size_t TimingEngine::StateMemoryBytes() const {
  // Per-query state only; the shared graph is accounted by the context.
  size_t bytes = 0;
  for (size_t level = 0; level < levels_.size(); ++level) {
    const Level& lv = levels_[level];
    const size_t n = lv.records.size();
    // Record nodes plus their vertex and edge images.
    bytes += HashBytes<decltype(lv.records)>(n) +
             n * (covered_[level].size() * sizeof(VertexId) +
                  (level + 1) * sizeof(EdgeId));
    // Index entries: each record appears in by_edge (level+1 times) and in
    // join_index (once).
    bytes += n * (level + 2) * sizeof(uint64_t) +
             HashBytes<decltype(lv.by_edge)>(lv.by_edge.size()) +
             HashBytes<decltype(lv.join_index)>(lv.join_index.size());
  }
  for (const auto& fl : feasible_live_) {
    bytes += HashBytes<std::unordered_set<EdgeId>>(fl.size());
  }
  return bytes;
}

}  // namespace tcsm
