#include "graph/temporal_graph.h"

#include "common/memory_meter.h"

namespace tcsm {

VertexId TemporalGraph::AddVertex(Label label) {
  vertex_labels_.push_back(label);
  adj_.emplace_back();
  return static_cast<VertexId>(vertex_labels_.size() - 1);
}

void TemporalGraph::EnsureVertices(size_t n) {
  if (n <= vertex_labels_.size()) return;
  vertex_labels_.resize(n, 0);
  adj_.resize(n);
}

void TemporalGraph::SetVertexLabel(VertexId v, Label label) {
  TCSM_CHECK(v < vertex_labels_.size());
  TCSM_CHECK(adj_[v].degree == 0 &&
             "relabeling a vertex with live edges would strand bucket entries");
  vertex_labels_[v] = label;
}

uint32_t TemporalGraph::AllocNode(const AdjEntry& entry) {
  if (free_node_head_ != kNilNode) {
    const uint32_t n = free_node_head_;
    free_node_head_ = nodes_[n].next;
    nodes_[n].entry = entry;
    return n;
  }
  nodes_.push_back(AdjNode{entry, kNilNode, kNilNode});
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t TemporalGraph::LinkNode(VertexId v, const AdjEntry& entry) {
  const uint32_t n = AllocNode(entry);
  VertexAdj& va = adj_[v];
  const uint64_t sig = PackPair(entry.elabel, vertex_labels_[entry.nbr]);
  const auto [it, created] = va.buckets.try_emplace(sig);
  num_buckets_ += created;
  Bucket& bucket = it->second;
  nodes_[n].prev = bucket.tail;
  nodes_[n].next = kNilNode;
  if (bucket.tail == kNilNode) {
    bucket.head = n;
  } else {
    nodes_[bucket.tail].next = n;
  }
  bucket.tail = n;
  ++bucket.size;
  ++va.degree;
  va.sig_any.Add(sig);
  if (directed_) {
    if (entry.out) {
      ++bucket.out_size;
      va.sig_out.Add(sig);
    } else {
      va.sig_in.Add(sig);
    }
  }
  return n;
}

void TemporalGraph::UnlinkNode(VertexId v, uint32_t node) {
  const AdjEntry& entry = nodes_[node].entry;
  VertexAdj& va = adj_[v];
  auto it = va.buckets.find(
      PackPair(entry.elabel, vertex_labels_[entry.nbr]));
  TCSM_CHECK(it != va.buckets.end() && "edge missing from adjacency");
  Bucket& bucket = it->second;
  const uint32_t prev = nodes_[node].prev;
  const uint32_t next = nodes_[node].next;
  if (prev == kNilNode) {
    bucket.head = next;
  } else {
    nodes_[prev].next = next;
  }
  if (next == kNilNode) {
    bucket.tail = prev;
  } else {
    nodes_[next].prev = prev;
  }
  TCSM_CHECK(bucket.size > 0);
  --bucket.size;
  --va.degree;
  if (directed_ && entry.out) {
    TCSM_CHECK(bucket.out_size > 0);
    --bucket.out_size;
  }
  // Signature masks: a Bloom bit may be shared between buckets, so bits
  // cannot be cleared per-key; when a count drops to zero the affected
  // masks are re-derived from the surviving buckets instead (keeps
  // MayHaveMatching exact — no false negatives, ever).
  if (bucket.size == 0 ||
      (directed_ && (entry.out ? bucket.out_size == 0
                               : bucket.size == bucket.out_size))) {
    RebuildSigMasks(v);
  }
  // Push onto the node free-list.
  nodes_[node].next = free_node_head_;
  free_node_head_ = node;
}

void TemporalGraph::RebuildSigMasks(VertexId v) {
  VertexAdj& va = adj_[v];
  va.sig_any.Clear();
  va.sig_out.Clear();
  va.sig_in.Clear();
  for (const auto& [sig, bucket] : va.buckets) {
    if (bucket.size == 0) continue;
    va.sig_any.Add(sig);
    if (directed_) {
      if (bucket.out_size > 0) va.sig_out.Add(sig);
      if (bucket.size > bucket.out_size) va.sig_in.Add(sig);
    }
  }
}

void TemporalGraph::DrainPendingFrees() {
  for (const uint32_t slot : pending_free_) {
    const EdgeId id = slots_[slot].edge.id;
    ring_[id - base_id_] = kInvalidSlot;
    free_slots_.push_back(slot);
  }
  pending_free_.clear();
  // The front-advance runs even with nothing newly freed: InsertEdgeAs
  // leaves permanent kInvalidSlot holes for skipped ids, and those must
  // slide out of the ring once FIFO expiry reaches them.
  while (!ring_.empty() && ring_.front() == kInvalidSlot) {
    ring_.pop_front();
    ++base_id_;
  }
}

EdgeId TemporalGraph::InsertEdge(VertexId src, VertexId dst, Timestamp ts,
                                 Label label) {
  return InsertEdgeAs(next_id_, src, dst, ts, label);
}

EdgeId TemporalGraph::InsertEdgeAs(EdgeId id, VertexId src, VertexId dst,
                                   Timestamp ts, Label label) {
  TCSM_CHECK(src < vertex_labels_.size() && dst < vertex_labels_.size());
  // No simple query can match a self loop (vertex images are injective);
  // loaders drop them on ingest and the store rejects them outright.
  TCSM_CHECK(src != dst && "self loops are not supported");
  // Ids are 32-bit dense arrival indices and are never recycled, so one
  // graph instance supports 2^32 - 1 arrivals; abort loudly at the limit
  // instead of silently wrapping (see the header).
  TCSM_CHECK(id != kInvalidEdge && "edge-id space exhausted");
  TCSM_CHECK(id >= next_id_ && "caller-assigned ids must be ascending");
  DrainPendingFrees();
  if (ring_.empty()) {
    // Nothing alive and nothing pending: skip straight to `id` instead of
    // materializing one hole per skipped id. This is what makes a seeked
    // replay (io/stream_reader.h SeekToTimestamp), whose first arrival id
    // is the count of skipped arrivals, O(1) rather than O(skipped).
    base_id_ = id;
    next_id_ = id;
  }
  // Ids skipped over become holes: ring entries that were never backed by
  // a slot, indistinguishable from already-reclaimed ids to every reader.
  while (next_id_ < id) {
    ring_.push_back(kInvalidSlot);
    ++next_id_;
  }
  ++next_id_;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  EdgeSlot& s = slots_[slot];
  s.edge = TemporalEdge{id, src, dst, ts, label};
  s.alive = true;
  s.node_src = LinkNode(src, AdjEntry{dst, id, ts, label, /*out=*/true});
  s.node_dst = LinkNode(dst, AdjEntry{src, id, ts, label, /*out=*/false});
  ring_.push_back(slot);
  ++num_alive_;
  return id;
}

void TemporalGraph::RemoveEdge(EdgeId id) {
  const uint32_t slot = ResolveSlot(id);
  EdgeSlot& s = slots_[slot];
  TCSM_CHECK(s.alive && "edge already removed");
  UnlinkNode(s.edge.src, s.node_src);
  UnlinkNode(s.edge.dst, s.node_dst);
  s.node_src = kNilNode;
  s.node_dst = kNilNode;
  s.alive = false;
  // Deferred reclamation: the record stays readable (as a tombstone) until
  // the next InsertEdge, so index-update code running after the removal of
  // this very event can still read Edge(id).
  pending_free_.push_back(slot);
  --num_alive_;
}

size_t TemporalGraph::EstimateMemoryBytes() const {
  return VectorBytes(vertex_labels_) + VectorBytes(adj_) +
         VectorBytes(nodes_) + VectorBytes(slots_) +
         VectorBytes(free_slots_) + VectorBytes(pending_free_) +
         ring_.size() * sizeof(uint32_t) + sizeof(ring_) +
         HashBytes<decltype(VertexAdj::buckets)>(num_buckets_);
}

}  // namespace tcsm
