#include "dcs/dcs_index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/memory_meter.h"

namespace tcsm {
namespace {

/// Endpoint images of a DCS triple.
struct Images {
  VertexId img_u;  // image of qe.u
  VertexId img_v;  // image of qe.v
};

Images ResolveImages(const TemporalEdge& ed, bool flip) {
  return flip ? Images{ed.dst, ed.src} : Images{ed.src, ed.dst};
}

bool LessParallel(const ParallelEdge& a, const ParallelEdge& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.edge != b.edge) return a.edge < b.edge;
  return a.flip < b.flip;
}

}  // namespace

DcsIndex::DcsIndex(const QueryGraph* query, const QueryDag* dag)
    : query_(query), dag_(dag) {
  const size_t n = query->NumVertices();
  const size_t m = query->NumEdges();
  nodes_.resize(n);
  parallel_.resize(m);
  pslot_.assign(m, 0);
  cslot_.assign(m, 0);
  for (VertexId u = 0; u < n; ++u) {
    const auto& pe = dag->ParentEdges(u);
    for (size_t i = 0; i < pe.size(); ++i) pslot_[pe[i]] =
        static_cast<uint32_t>(i);
    const auto& ce = dag->ChildEdges(u);
    for (size_t i = 0; i < ce.size(); ++i) cslot_[ce[i]] =
        static_cast<uint32_t>(i);
  }
}

DcsIndex::Node* DcsIndex::FindNode(VertexId u, VertexId v) {
  auto it = nodes_[u].find(v);
  return it == nodes_[u].end() ? nullptr : &it->second;
}

const DcsIndex::Node* DcsIndex::FindNode(VertexId u, VertexId v) const {
  auto it = nodes_[u].find(v);
  return it == nodes_[u].end() ? nullptr : &it->second;
}

DcsIndex::Node& DcsIndex::GetOrCreateNode(VertexId u, VertexId v) {
  auto [it, inserted] = nodes_[u].try_emplace(v);
  Node& node = it->second;
  if (inserted) {
    node.up.resize(dag_->ParentEdges(u).size());
    node.n1.assign(dag_->ParentEdges(u).size(), 0);
    node.down.resize(dag_->ChildEdges(u).size());
    node.n2.assign(dag_->ChildEdges(u).size(), 0);
    node.d1 = node.up.empty();              // roots: trivially supported
    node.d2 = node.d1 && node.down.empty();  // isolated leaf-root
    ++stats_.num_nodes;
    if (node.d1) ++stats_.num_d1_nodes;
    if (node.d2) ++stats_.num_d2_nodes;
  }
  return node;
}

bool DcsIndex::ComputeD1(VertexId, const Node& node) const {
  for (const uint32_t c : node.n1) {
    if (c == 0) return false;
  }
  return true;
}

bool DcsIndex::ComputeD2(VertexId, const Node& node) const {
  if (!node.d1) return false;
  for (const uint32_t c : node.n2) {
    if (c == 0) return false;
  }
  return true;
}

void DcsIndex::RecheckD1(VertexId u, VertexId v) {
  Node* node = FindNode(u, v);
  TCSM_CHECK(node != nullptr);
  const bool nv = ComputeD1(u, *node);
  if (nv == node->d1) return;
  node->d1 = nv;
  stats_.num_d1_nodes += nv ? 1 : -1;
  // D1 support flows to children.
  const auto& child_edges = dag_->ChildEdges(u);
  for (size_t j = 0; j < child_edges.size(); ++j) {
    const EdgeId f = child_edges[j];
    const VertexId uc = dag_->ChildOf(f);
    for (const auto& [vc, cnt] : node->down[j]) {
      Node* ch = FindNode(uc, vc);
      TCSM_CHECK(ch != nullptr);
      if (nv) {
        ch->n1[pslot_[f]] += cnt;
      } else {
        TCSM_CHECK(ch->n1[pslot_[f]] >= cnt);
        ch->n1[pslot_[f]] -= cnt;
      }
      pending_.push_back(Check{uc, vc, /*is_d1=*/true});
    }
  }
  pending_.push_back(Check{u, v, /*is_d1=*/false});
}

void DcsIndex::RecheckD2(VertexId u, VertexId v) {
  Node* node = FindNode(u, v);
  TCSM_CHECK(node != nullptr);
  const bool nv = ComputeD2(u, *node);
  if (nv == node->d2) return;
  node->d2 = nv;
  stats_.num_d2_nodes += nv ? 1 : -1;
  // D2 support flows to parents.
  const auto& parent_edges = dag_->ParentEdges(u);
  for (size_t i = 0; i < parent_edges.size(); ++i) {
    const EdgeId pe = parent_edges[i];
    const VertexId up = dag_->ParentOf(pe);
    for (const auto& [vp, cnt] : node->up[i]) {
      Node* pn = FindNode(up, vp);
      TCSM_CHECK(pn != nullptr);
      if (nv) {
        pn->n2[cslot_[pe]] += cnt;
      } else {
        TCSM_CHECK(pn->n2[cslot_[pe]] >= cnt);
        pn->n2[cslot_[pe]] -= cnt;
      }
      pending_.push_back(Check{up, vp, /*is_d1=*/false});
    }
  }
}

void DcsIndex::ProcessPending() {
  while (!pending_.empty()) {
    const Check c = pending_.back();
    pending_.pop_back();
    if (c.is_d1) {
      RecheckD1(c.u, c.v);
    } else {
      RecheckD2(c.u, c.v);
    }
  }
}

void DcsIndex::Insert(EdgeId qe, const TemporalEdge& ed, bool flip) {
  const Images im = ResolveImages(ed, flip);
  auto& plist = parallel_[qe][PackPair(im.img_u, im.img_v)];
  const ParallelEdge pe{ed.ts, ed.id, flip};
  const auto pos =
      std::lower_bound(plist.begin(), plist.end(), pe, LessParallel);
  TCSM_CHECK((pos == plist.end() || LessParallel(pe, *pos)) &&
             "duplicate DCS edge insert");
  plist.insert(pos, pe);
  ++stats_.num_edges;

  const QueryEdge& q = query_->Edge(qe);
  const VertexId pu = dag_->ParentOf(qe);
  const VertexId cu = dag_->ChildOf(qe);
  const VertexId vp = (pu == q.u) ? im.img_u : im.img_v;
  const VertexId vc = (cu == q.u) ? im.img_u : im.img_v;

  Node& pn = GetOrCreateNode(pu, vp);
  Node& cn = GetOrCreateNode(cu, vc);
  ++cn.up[pslot_[qe]][vp];
  ++pn.down[cslot_[qe]][vc];

  if (pn.d1) {
    ++cn.n1[pslot_[qe]];
    pending_.push_back(Check{cu, vc, /*is_d1=*/true});
  }
  if (cn.d2) {
    ++pn.n2[cslot_[qe]];
    pending_.push_back(Check{pu, vp, /*is_d1=*/false});
  }
  ProcessPending();
}

void DcsIndex::Remove(EdgeId qe, const TemporalEdge& ed, bool flip) {
  const Images im = ResolveImages(ed, flip);
  auto pit = parallel_[qe].find(PackPair(im.img_u, im.img_v));
  TCSM_CHECK(pit != parallel_[qe].end() && "removing absent DCS edge");
  auto& plist = pit->second;
  const ParallelEdge pe{ed.ts, ed.id, flip};
  auto it = std::lower_bound(plist.begin(), plist.end(), pe, LessParallel);
  TCSM_CHECK(it != plist.end() && !LessParallel(pe, *it) &&
             "removing absent DCS edge");
  plist.erase(it);
  if (plist.empty()) parallel_[qe].erase(pit);
  --stats_.num_edges;

  const QueryEdge& q = query_->Edge(qe);
  const VertexId pu = dag_->ParentOf(qe);
  const VertexId cu = dag_->ChildOf(qe);
  const VertexId vp = (pu == q.u) ? im.img_u : im.img_v;
  const VertexId vc = (cu == q.u) ? im.img_u : im.img_v;

  Node* pn = FindNode(pu, vp);
  Node* cn = FindNode(cu, vc);
  TCSM_CHECK(pn != nullptr && cn != nullptr);

  auto decrement = [](NbrMap& map, VertexId k) {
    auto mit = map.find(k);
    TCSM_CHECK(mit != map.end() && mit->second > 0);
    if (--mit->second == 0) map.erase(mit);
  };
  decrement(cn->up[pslot_[qe]], vp);
  decrement(pn->down[cslot_[qe]], vc);

  if (pn->d1) {
    TCSM_CHECK(cn->n1[pslot_[qe]] > 0);
    --cn->n1[pslot_[qe]];
    pending_.push_back(Check{cu, vc, /*is_d1=*/true});
  }
  if (cn->d2) {
    TCSM_CHECK(pn->n2[cslot_[qe]] > 0);
    --pn->n2[cslot_[qe]];
    pending_.push_back(Check{pu, vp, /*is_d1=*/false});
  }
  ProcessPending();
  // Garbage-collect nodes with no incident DCS edges left; they contribute
  // no support and keep the index canonical (incremental state equals a
  // from-scratch rebuild).
  MaybeEraseNode(pu, vp);
  MaybeEraseNode(cu, vc);
}

void DcsIndex::MaybeEraseNode(VertexId u, VertexId v) {
  auto it = nodes_[u].find(v);
  if (it == nodes_[u].end()) return;
  const Node& node = it->second;
  for (const NbrMap& m : node.up) {
    if (!m.empty()) return;
  }
  for (const NbrMap& m : node.down) {
    if (!m.empty()) return;
  }
  --stats_.num_nodes;
  if (node.d1) --stats_.num_d1_nodes;
  if (node.d2) --stats_.num_d2_nodes;
  nodes_[u].erase(it);
}

bool DcsIndex::Contains(EdgeId qe, const TemporalEdge& ed, bool flip) const {
  const Images im = ResolveImages(ed, flip);
  const std::vector<ParallelEdge>* plist = Parallel(qe, im.img_u, im.img_v);
  return plist != nullptr &&
         std::binary_search(plist->begin(), plist->end(),
                            ParallelEdge{ed.ts, ed.id, flip}, LessParallel);
}

const std::vector<ParallelEdge>* DcsIndex::Parallel(EdgeId qe, VertexId img_u,
                                                    VertexId img_v) const {
  auto it = parallel_[qe].find(PackPair(img_u, img_v));
  return it == parallel_[qe].end() ? nullptr : &it->second;
}

bool DcsIndex::D1(VertexId u, VertexId v) const {
  const Node* node = FindNode(u, v);
  return node != nullptr && node->d1;
}

bool DcsIndex::D2(VertexId u, VertexId v) const {
  const Node* node = FindNode(u, v);
  return node != nullptr && node->d2;
}

const DcsIndex::NbrMap* DcsIndex::Candidates(EdgeId via_edge,
                                             VertexId mapped_qv,
                                             VertexId mapped_img) const {
  const Node* node = FindNode(mapped_qv, mapped_img);
  if (node == nullptr) return nullptr;
  if (dag_->ParentOf(via_edge) == mapped_qv) {
    return &node->down[cslot_[via_edge]];
  }
  TCSM_CHECK(dag_->ChildOf(via_edge) == mapped_qv);
  return &node->up[pslot_[via_edge]];
}

void DcsIndex::Seeds(const TemporalEdge& ed,
                     std::vector<std::pair<EdgeId, bool>>* out) const {
  out->clear();
  for (EdgeId qe = 0; qe < query_->NumEdges(); ++qe) {
    const QueryEdge& q = query_->Edge(qe);
    for (const bool flip : {false, true}) {
      const Images im = ResolveImages(ed, flip);
      if (Contains(qe, ed, flip) && D2(q.u, im.img_u) && D2(q.v, im.img_v)) {
        out->emplace_back(qe, flip);
      }
    }
  }
}

auto DcsIndex::NextExtension(Mask64 mapped,
                             const std::vector<VertexId>& vmap) const
    -> Extension {
  Extension best;
  size_t best_size = SIZE_MAX;
  for (VertexId u = 0; u < query_->NumVertices(); ++u) {
    if (HasBit(mapped, u)) continue;
    for (const EdgeId f : query_->IncidentEdges(u)) {
      const VertexId u2 = query_->Edge(f).Other(u);
      if (!HasBit(mapped, u2)) continue;
      const NbrMap* cmap = Candidates(f, u2, vmap[u2]);
      const size_t size = cmap == nullptr ? 0 : cmap->size();
      if (size < best_size) {
        best_size = size;
        best = Extension{u, f, cmap};
      }
    }
  }
  TCSM_CHECK(best.u != kInvalidVertex && "query must be connected");
  return best;
}

bool DcsIndex::Admits(const Extension& ext, VertexId w, Mask64 mapped,
                      const std::vector<VertexId>& vmap) const {
  if (!D2(ext.u, w) || MappedTo(mapped, vmap, w)) return false;
  for (const EdgeId f : query_->IncidentEdges(ext.u)) {
    if (f == ext.via) continue;
    const VertexId u2 = query_->Edge(f).Other(ext.u);
    if (!HasBit(mapped, u2)) continue;
    const NbrMap* m = Candidates(f, u2, vmap[u2]);
    if (m == nullptr || m->count(w) == 0) return false;
  }
  return true;
}

void DcsIndex::ValidateInvariantsForTest() const {
  size_t parallel_total = 0;
  size_t pairs = 0;
  for (EdgeId qe = 0; qe < query_->NumEdges(); ++qe) {
    pairs += parallel_[qe].size();
    for (const auto& [key, plist] : parallel_[qe]) {
      TCSM_CHECK(!plist.empty());
      parallel_total += plist.size();
      // Strictly increasing: sorted for ECM range queries, and no triple
      // twice (membership is a search in this list).
      for (size_t i = 1; i < plist.size(); ++i) {
        TCSM_CHECK(LessParallel(plist[i - 1], plist[i]));
      }
    }
  }
  TCSM_CHECK(parallel_total == stats_.num_edges);

  size_t nodes = 0;
  size_t d1_nodes = 0;
  size_t d2_nodes = 0;
  size_t up_entries = 0;
  size_t down_entries = 0;
  for (VertexId u = 0; u < query_->NumVertices(); ++u) {
    const auto& parent_edges = dag_->ParentEdges(u);
    const auto& child_edges = dag_->ChildEdges(u);
    for (const auto& [v, node] : nodes_[u]) {
      ++nodes;
      d1_nodes += node.d1;
      d2_nodes += node.d2;
      // GC invariant: a node must carry at least one incident DCS edge.
      bool any = false;
      for (const NbrMap& m : node.up) {
        any = any || !m.empty();
        up_entries += m.size();
      }
      for (const NbrMap& m : node.down) {
        any = any || !m.empty();
        down_entries += m.size();
      }
      TCSM_CHECK(any && "empty node not garbage-collected");
      // Support counters re-derived from neighbor maps + neighbor bits.
      for (size_t i = 0; i < parent_edges.size(); ++i) {
        uint32_t expect = 0;
        for (const auto& [vp, cnt] : node.up[i]) {
          const Node* pn = FindNode(dag_->ParentOf(parent_edges[i]), vp);
          TCSM_CHECK(pn != nullptr);
          if (pn->d1) expect += cnt;
        }
        TCSM_CHECK(node.n1[i] == expect);
      }
      for (size_t j = 0; j < child_edges.size(); ++j) {
        uint32_t expect = 0;
        for (const auto& [vc, cnt] : node.down[j]) {
          const Node* cn = FindNode(dag_->ChildOf(child_edges[j]), vc);
          TCSM_CHECK(cn != nullptr);
          if (cn->d2) expect += cnt;
        }
        TCSM_CHECK(node.n2[j] == expect);
      }
      TCSM_CHECK(node.d1 == ComputeD1(u, node));
      TCSM_CHECK(node.d2 == ComputeD2(u, node));
    }
  }
  // The count model of EstimateMemoryBytes: each image pair is exactly
  // one `up` entry and one `down` entry.
  TCSM_CHECK(up_entries == pairs && down_entries == pairs);
  TCSM_CHECK(nodes == stats_.num_nodes);
  TCSM_CHECK(d1_nodes == stats_.num_d1_nodes);
  TCSM_CHECK(d2_nodes == stats_.num_d2_nodes);
}

size_t DcsIndex::EstimateMemoryBytes() const {
  // Three counts price the index: nodes per query vertex (each with one
  // NbrMap and one support counter per incident DAG edge), image pairs
  // (each one parallel_ key, one `up` entry at the child node and one
  // `down` entry at the parent node; ValidateInvariantsForTest checks
  // that bijection), and parallel DCS edges.
  size_t bytes = 0;
  for (VertexId u = 0; u < nodes_.size(); ++u) {
    const size_t slots =
        dag_->ParentEdges(u).size() + dag_->ChildEdges(u).size();
    bytes += HashBytes<std::unordered_map<VertexId, Node>>(nodes_[u].size()) +
             nodes_[u].size() * slots * (sizeof(NbrMap) + sizeof(uint32_t));
  }
  size_t pairs = 0;
  for (const auto& per_edge : parallel_) pairs += per_edge.size();
  using ParallelMap =
      std::unordered_map<uint64_t, std::vector<ParallelEdge>>;
  bytes += HashBytes<ParallelMap>(pairs) + 2 * HashBytes<NbrMap>(pairs) +
           stats_.num_edges * sizeof(ParallelEdge);
  return bytes;
}

}  // namespace tcsm
