// Member definitions of BasicMaxMinIndex<GraphT> (template over the graph
// type — see maxmin_index.h). Included at the bottom of maxmin_index.h;
// the canonical <TemporalGraph> instantiation is compiled once in
// maxmin_index.cpp, the sharded-view one in src/shard/.
#ifndef TCSM_FILTER_MAXMIN_INDEX_INL_H_
#define TCSM_FILTER_MAXMIN_INDEX_INL_H_

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/memory_meter.h"

namespace tcsm {

template <typename GraphT>
BasicMaxMinIndex<GraphT>::BasicMaxMinIndex(const GraphT* graph,
                                           const QueryDag* dag)
    : graph_(graph), dag_(dag), query_(&dag->query()) {
  entries_.resize(query_->NumVertices());
  dirty_.resize(query_->NumVertices());
}

template <typename GraphT>
auto BasicMaxMinIndex<GraphT>::GetEntry(VertexId u, VertexId v)
    -> const Entry& {
  auto& bucket = entries_[u];
  auto it = bucket.find(v);
  if (it != bucket.end()) return it->second;
  Entry entry = ComputeEntry(u, v);
  return bucket.emplace(v, std::move(entry)).first->second;
}

template <typename GraphT>
auto BasicMaxMinIndex<GraphT>::ComputeEntry(VertexId u, VertexId v) -> Entry {
  const size_t n_later = dag_->TrackedLater(u).size();
  const size_t n_earlier = dag_->TrackedEarlier(u).size();
  Entry entry;
  entry.later.assign(n_later, kPlusInfinity);    // min over children
  entry.earlier.assign(n_earlier, kMinusInfinity);  // max over children
  if (query_->VertexLabel(u) != graph_->VertexLabel(v)) {
    entry.weak = false;
    std::fill(entry.later.begin(), entry.later.end(), kMinusInfinity);
    std::fill(entry.earlier.begin(), entry.earlier.end(), kPlusInfinity);
    return entry;
  }
  entry.weak = true;

  // Scratch per-branch aggregates (max over parallel candidates for
  // `later`, min for `earlier` — Eq. (1) and its mirror).
  std::vector<Timestamp> branch_later(n_later);
  std::vector<Timestamp> branch_earlier(n_earlier);

  for (const EdgeId f : dag_->ChildEdges(u)) {
    const VertexId uc = dag_->ChildOf(f);
    const QueryEdge& qf = query_->Edge(f);
    const Label want_vlabel = query_->VertexLabel(uc);
    // Direction constraint for directed graphs: the data edge must leave v
    // iff the query edge leaves u.
    const bool need_out = qf.u == u;

    std::fill(branch_later.begin(), branch_later.end(), kMinusInfinity);
    std::fill(branch_earlier.begin(), branch_earlier.end(), kPlusInfinity);
    bool branch_weak = false;

    ScanNeighbors(v, qf.elabel, want_vlabel, need_out, [&](const AdjEntry& a) {
      // Pull the child entry (lazily computed). Note: GetEntry may insert
      // into entries_[uc]; safe because `entry` lives on our stack.
      const Entry& child = GetEntry(uc, a.nbr);
      if (child.weak) branch_weak = true;

      for (size_t s = 0; s < n_later; ++s) {
        const EdgeId e = dag_->TrackedLater(u)[s];
        const int cslot = dag_->SlotLater(uc, e);
        Timestamp val = cslot >= 0 ? child.later[static_cast<size_t>(cslot)]
                        : child.weak ? kPlusInfinity
                                     : kMinusInfinity;
        if (query_->Precedes(e, f)) val = std::min(val, a.ts);
        branch_later[s] = std::max(branch_later[s], val);
      }
      for (size_t s = 0; s < n_earlier; ++s) {
        const EdgeId e = dag_->TrackedEarlier(u)[s];
        const int cslot = dag_->SlotEarlier(uc, e);
        Timestamp val = cslot >= 0 ? child.earlier[static_cast<size_t>(cslot)]
                        : child.weak ? kMinusInfinity
                                     : kPlusInfinity;
        if (query_->Precedes(f, e)) val = std::max(val, a.ts);
        branch_earlier[s] = std::min(branch_earlier[s], val);
      }
    });

    entry.weak = entry.weak && branch_weak;
    for (size_t s = 0; s < n_later; ++s) {
      entry.later[s] = std::min(entry.later[s], branch_later[s]);
    }
    for (size_t s = 0; s < n_earlier; ++s) {
      entry.earlier[s] = std::max(entry.earlier[s], branch_earlier[s]);
    }
  }
  return entry;
}

template <typename GraphT>
bool BasicMaxMinIndex<GraphT>::GateChanged(VertexId u, const Entry& before,
                                           const Entry& after) const {
  if (before.weak != after.weak) return true;
  for (const EdgeId e : dag_->ParentEdges(u)) {
    const int sl = dag_->SlotLater(u, e);
    if (sl >= 0 && before.later[static_cast<size_t>(sl)] !=
                       after.later[static_cast<size_t>(sl)]) {
      return true;
    }
    const int se = dag_->SlotEarlier(u, e);
    if (se >= 0 && before.earlier[static_cast<size_t>(se)] !=
                       after.earlier[static_cast<size_t>(se)]) {
      return true;
    }
  }
  return false;
}

template <typename GraphT>
void BasicMaxMinIndex<GraphT>::MarkDirty(VertexId u, VertexId v) {
  if (entries_[u].find(v) == entries_[u].end()) return;  // lazy: no readers
  dirty_[dag_->TopoPos(u)].insert(v);
}

template <typename GraphT>
void BasicMaxMinIndex<GraphT>::ProcessDirty(std::vector<UvPair>* touched) {
  const auto& topo = dag_->TopoOrder();
  // Children have larger topological positions; process them first so each
  // entry is recomputed at most once per event (Algorithm 3's queue).
  for (size_t pos = topo.size(); pos-- > 0;) {
    auto& bucket = dirty_[pos];
    if (bucket.empty()) continue;
    const VertexId u = topo[pos];
    // Move out: recomputation never dirties the same position again
    // (propagation goes strictly to smaller positions).
    std::unordered_set<VertexId> work;
    work.swap(bucket);
    for (const VertexId v : work) {
      auto it = entries_[u].find(v);
      TCSM_CHECK(it != entries_[u].end());
      Entry fresh = ComputeEntry(u, v);
      if (fresh == it->second) continue;
      const bool gate = GateChanged(u, it->second, fresh);
      it->second = std::move(fresh);
      if (gate) touched->push_back(UvPair{u, v});
      // Propagate to existing parent entries reachable through live data
      // edges (Algorithm 3 lines 10-19).
      for (const EdgeId pe : dag_->ParentEdges(u)) {
        const VertexId up = dag_->ParentOf(pe);
        const QueryEdge& qpe = query_->Edge(pe);
        const Label want = query_->VertexLabel(up);
        const bool nbr_out = qpe.u == up;  // data edge leaves the parent
        // From v's side the wanted entries point *toward* the parent, so
        // the direction constraint is the inverse of nbr_out.
        ScanNeighbors(v, qpe.elabel, want, !nbr_out,
                      [&](const AdjEntry& a) { MarkDirty(up, a.nbr); });
      }
    }
  }
}

template <typename GraphT>
void BasicMaxMinIndex<GraphT>::OnEdgeInserted(const TemporalEdge& ed,
                                              std::vector<UvPair>* touched) {
  // The new edge is a fresh parallel candidate for every DAG edge it can
  // match; only the parent-side entries reference it (Eq. (1) iterates
  // candidates from the parent's adjacency).
  for (EdgeId qe = 0; qe < query_->NumEdges(); ++qe) {
    for (const bool flip : {false, true}) {
      if (!StaticFeasible(*query_, *graph_, qe, ed, flip)) continue;
      const VertexId pu = dag_->ParentOf(qe);
      const QueryEdge& q = query_->Edge(qe);
      const VertexId vp = (pu == q.u) ? (flip ? ed.dst : ed.src)
                                      : (flip ? ed.src : ed.dst);
      MarkDirty(pu, vp);
    }
  }
  ProcessDirty(touched);
}

template <typename GraphT>
void BasicMaxMinIndex<GraphT>::OnEdgeRemoved(const TemporalEdge& ed,
                                             std::vector<UvPair>* touched) {
  for (EdgeId qe = 0; qe < query_->NumEdges(); ++qe) {
    for (const bool flip : {false, true}) {
      if (!StaticFeasible(*query_, *graph_, qe, ed, flip)) continue;
      const VertexId pu = dag_->ParentOf(qe);
      const QueryEdge& q = query_->Edge(qe);
      const VertexId vp = (pu == q.u) ? (flip ? ed.dst : ed.src)
                                      : (flip ? ed.src : ed.dst);
      MarkDirty(pu, vp);
    }
  }
  ProcessDirty(touched);
}

template <typename GraphT>
bool BasicMaxMinIndex<GraphT>::CheckMatchable(EdgeId qe,
                                              const TemporalEdge& ed,
                                              bool flip) {
  const QueryEdge& q = query_->Edge(qe);
  const VertexId cu = dag_->ChildOf(qe);
  const VertexId vc = (cu == q.u) ? (flip ? ed.dst : ed.src)
                                  : (flip ? ed.src : ed.dst);
  const Entry& entry = GetEntry(cu, vc);
  if (!entry.weak) return false;
  const int sl = dag_->SlotLater(cu, qe);
  if (sl >= 0 && !(ed.ts < entry.later[static_cast<size_t>(sl)])) {
    return false;
  }
  const int se = dag_->SlotEarlier(cu, qe);
  if (se >= 0 && !(ed.ts > entry.earlier[static_cast<size_t>(se)])) {
    return false;
  }
  return true;
}

template <typename GraphT>
Timestamp BasicMaxMinIndex<GraphT>::Later(VertexId u, VertexId v, EdgeId e) {
  const Entry& entry = GetEntry(u, v);
  const int slot = dag_->SlotLater(u, e);
  if (slot >= 0) return entry.later[static_cast<size_t>(slot)];
  return entry.weak ? kPlusInfinity : kMinusInfinity;
}

template <typename GraphT>
Timestamp BasicMaxMinIndex<GraphT>::Earlier(VertexId u, VertexId v, EdgeId e) {
  const Entry& entry = GetEntry(u, v);
  const int slot = dag_->SlotEarlier(u, e);
  if (slot >= 0) return entry.earlier[static_cast<size_t>(slot)];
  return entry.weak ? kMinusInfinity : kPlusInfinity;
}

template <typename GraphT>
bool BasicMaxMinIndex<GraphT>::Weak(VertexId u, VertexId v) {
  return GetEntry(u, v).weak;
}

template <typename GraphT>
size_t BasicMaxMinIndex<GraphT>::NumEntries() const {
  size_t n = 0;
  for (const auto& bucket : entries_) n += bucket.size();
  return n;
}

template <typename GraphT>
size_t BasicMaxMinIndex<GraphT>::EstimateMemoryBytes() const {
  // Every entry of u holds one slot per tracked edge of u (ComputeEntry
  // sizes them exactly), so the entry count prices the whole bucket.
  size_t bytes = 0;
  for (VertexId u = 0; u < entries_.size(); ++u) {
    const size_t n = entries_[u].size();
    const size_t slots =
        dag_->TrackedLater(u).size() + dag_->TrackedEarlier(u).size();
    bytes += HashBytes<std::unordered_map<VertexId, Entry>>(n) +
             n * slots * sizeof(Timestamp);
  }
  return bytes;
}

}  // namespace tcsm

#endif  // TCSM_FILTER_MAXMIN_INDEX_INL_H_
