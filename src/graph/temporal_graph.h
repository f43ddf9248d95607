// Sliding-window temporal multigraph: the "current state g of G" from
// Algorithm 1 of the paper, organized for infinite streams.
//
// Two storage-layer properties keep hot paths fast and memory bounded:
//
//  * Slot recycling — live edges occupy slots in a pooled store; an
//    expired edge returns its slot (and its two adjacency nodes) to a
//    free-list, so the live state is O(window), not O(stream length).
//    External EdgeIds stay the dense arrival indices 0, 1, 2, ... and are
//    never recycled; a sliding id ring maps an id to its current slot, and
//    the slot's stored id doubles as a generation check (a stale id can
//    resolve to "expired", never to a different edge). Removal is O(1) in
//    any order — per-endpoint node positions are stored on the slot, so
//    there is no linear-scan fallback for non-FIFO removals.
//
//  * Label-partitioned adjacency — each vertex's incident live edges are
//    bucketed by (edge label, neighbor label) signature, chronologically
//    ordered inside each bucket (arrivals append at the tail). Matching
//    code enumerates only the statically feasible bucket via
//    NeighborsMatching(v, elabel, nbr_label), so per-event work is
//    proportional to selectivity instead of degree. ForEachNeighbor
//    iterates all buckets (the flat scan the oracle uses).
//
// See DESIGN.md §7 for the layout, iteration-order guarantees, and the
// deferred-reclamation rule that keeps a removed edge's record readable
// through the NotifyRemoved phase of its own expiry event.
#ifndef TCSM_GRAPH_TEMPORAL_GRAPH_H_
#define TCSM_GRAPH_TEMPORAL_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/bloom.h"
#include "common/logging.h"
#include "common/types.h"
#include "graph/temporal_edge.h"

namespace tcsm {

/// One adjacency-list entry of a live edge.
struct AdjEntry {
  VertexId nbr;
  EdgeId edge;
  Timestamp ts;
  Label elabel;
  /// True when the edge leaves this vertex (src side). Ignored for
  /// undirected graphs.
  bool out;
};

class TemporalGraph {
 public:
  explicit TemporalGraph(bool directed = false) : directed_(directed) {}

  bool directed() const { return directed_; }

  /// Adds an isolated vertex and returns its id.
  VertexId AddVertex(Label label);

  /// Grows the vertex set to `n` vertices, new ones labeled 0.
  void EnsureVertices(size_t n);
  /// Only legal while `v` has no live incident edges: adjacency buckets
  /// are keyed by neighbor label, so relabeling a connected vertex would
  /// strand entries in stale buckets.
  void SetVertexLabel(VertexId v, Label label);

  /// Inserts a live edge (arrival event) and returns its id — the dense
  /// arrival index. Timestamps must be non-decreasing across insertions
  /// (streaming order). Reuses a free slot when one exists; ids are never
  /// reused. EdgeId is 32-bit, so a graph instance supports 2^32 - 1
  /// arrivals and CHECK-fails past that — the binding bound now that slot
  /// memory no longer grows with the stream (widening the id type is the
  /// next step when a deployment needs longer unbroken streams).
  EdgeId InsertEdge(VertexId src, VertexId dst, Timestamp ts, Label label = 0);

  /// InsertEdge with a caller-assigned id. `id` must be >= the next id
  /// this graph would assign; the skipped ids become permanent holes in
  /// the id ring (Alive() false, Edge() CHECK-fails — exactly like a
  /// reclaimed id). This is how a shard keeps the *global* dense arrival
  /// ids for the subset of edges it holds, so EdgeId-keyed engine state
  /// stays identical to an unsharded run (see src/shard/). The holes are
  /// reclaimed by the same front-advance as expired ids, so IdSpan stays
  /// O(window) under FIFO expiry regardless of how sparse the subset is.
  EdgeId InsertEdgeAs(EdgeId id, VertexId src, VertexId dst, Timestamp ts,
                      Label label = 0);

  /// Removes a live edge (expiration event) in O(1) regardless of order —
  /// the slot stores both endpoint adjacency positions. The slot itself is
  /// reclaimed lazily at the next InsertEdge, so Edge(id) of the edge
  /// removed most recently stays readable until then (the NotifyRemoved
  /// phase of the shared context relies on this).
  void RemoveEdge(EdgeId id);

  size_t NumVertices() const { return vertex_labels_.size(); }
  /// Edges inserted since construction (== the next id to be
  /// assigned). Unlike slots, this grows with the stream.
  size_t NumEdgesEver() const { return next_id_; }
  size_t NumAliveEdges() const { return num_alive_; }

  /// Slot-pool high-water mark: the most edges that were ever live at
  /// once (plus at most one pending-reclaim tombstone). Bounded by the
  /// window, not the stream length — asserted by the storage soak test.
  size_t NumSlots() const { return slots_.size(); }
  /// Slots currently on the free-list or awaiting reclamation.
  size_t NumFreeSlots() const { return free_slots_.size() + pending_free_.size(); }
  /// Width of the id ring (distance from the oldest unreclaimed id to the
  /// next id). O(window) under FIFO expiry.
  size_t IdSpan() const { return ring_.size(); }

  Label VertexLabel(VertexId v) const { return vertex_labels_[v]; }
  /// The canonical record of a live (or most-recently-removed, see
  /// RemoveEdge) edge. CHECK-fails for ids whose slot was reclaimed.
  const TemporalEdge& Edge(EdgeId id) const {
    return slots_[ResolveSlot(id)].edge;
  }
  bool Alive(EdgeId id) const {
    if (id < base_id_ || id >= next_id_) return false;
    const uint32_t slot = ring_[id - base_id_];
    return slot != kInvalidSlot && slots_[slot].alive;
  }

  size_t Degree(VertexId v) const { return adj_[v].degree; }

  /// The exact per-vertex signature masks behind MayHaveMatching —
  /// exported so a sharded deployment can publish a vertex's filter state
  /// to the other shards (src/shard/summaries.h). False-negative-free by
  /// construction (bits are re-derived whenever a bucket count hits zero).
  const Bloom64& VertexSigAny(VertexId v) const { return adj_[v].sig_any; }
  const Bloom64& VertexSigOut(VertexId v) const { return adj_[v].sig_out; }
  const Bloom64& VertexSigIn(VertexId v) const { return adj_[v].sig_in; }

  /// Iterator over one adjacency bucket (an intrusive doubly-linked list
  /// through the node pool). Invalidated by any graph mutation.
  class NeighborIterator {
   public:
    const AdjEntry& operator*() const { return g_->nodes_[node_].entry; }
    const AdjEntry* operator->() const { return &g_->nodes_[node_].entry; }
    NeighborIterator& operator++() {
      node_ = g_->nodes_[node_].next;
      return *this;
    }
    bool operator==(const NeighborIterator& o) const {
      return node_ == o.node_;
    }
    bool operator!=(const NeighborIterator& o) const {
      return node_ != o.node_;
    }

   private:
    friend class TemporalGraph;
    NeighborIterator(const TemporalGraph* g, uint32_t node)
        : g_(g), node_(node) {}
    const TemporalGraph* g_;
    uint32_t node_;
  };

  class NeighborRange {
   public:
    NeighborIterator begin() const { return NeighborIterator(g_, head_); }
    NeighborIterator end() const { return NeighborIterator(g_, kNilNode); }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    friend class TemporalGraph;
    NeighborRange(const TemporalGraph* g, uint32_t head, size_t size)
        : g_(g), head_(head), size_(size) {}
    const TemporalGraph* g_;
    uint32_t head_;
    size_t size_;
  };

  /// Candidate pre-filter: false means v has *no* live incident edge with
  /// this (edge label, neighbor label) signature in the wanted direction —
  /// callers may skip the bucket scan entirely. True is advisory (a Bloom
  /// bit collision or a bucket mixing directions can report true for an
  /// empty scan), so a scan gated on it visits at most what an ungated
  /// scan would. `want_out` is the direction from v's perspective and is
  /// ignored for undirected graphs. O(1): two mask probes.
  bool MayHaveMatching(VertexId v, Label elabel, Label nbr_label,
                       bool want_out) const {
    const VertexAdj& va = adj_[v];
    const Bloom64& sig =
        !directed_ ? va.sig_any : (want_out ? va.sig_out : va.sig_in);
    return sig.MayContain(PackPair(elabel, nbr_label));
  }

  /// Live incident edges of `v` whose edge label is `elabel` and whose
  /// other endpoint carries `nbr_label`, in chronological order. Both
  /// directions for directed graphs — check AdjEntry::out. Work here is
  /// proportional to the statically feasible entries only.
  NeighborRange NeighborsMatching(VertexId v, Label elabel,
                                  Label nbr_label) const {
    const auto& buckets = adj_[v].buckets;
    const auto it = buckets.find(PackPair(elabel, nbr_label));
    if (it == buckets.end()) return NeighborRange(this, kNilNode, 0);
    return NeighborRange(this, it->second.head, it->second.size);
  }

  /// All live incident edges of `v` — every bucket in turn, chronological
  /// within a bucket but unordered across buckets: the flat scan the
  /// brute-force oracle and the storage tests use.
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    for (const auto& [sig, bucket] : adj_[v].buckets) {
      for (uint32_t n = bucket.head; n != kNilNode; n = nodes_[n].next) {
        fn(nodes_[n].entry);
      }
    }
  }

  /// All live edges in ascending id (= arrival) order.
  template <typename Fn>
  void ForEachLiveEdge(Fn&& fn) const {
    for (EdgeId id = base_id_; id < next_id_; ++id) {
      const uint32_t slot = ring_[id - base_id_];
      if (slot == kInvalidSlot || !slots_[slot].alive) continue;
      fn(slots_[slot].edge);
    }
  }

  /// Edge(id), taking the vertex the caller is scanning from as a
  /// locality hint. The single-graph store has exactly one copy of every
  /// record, so the hint is unused here; a sharded view routes the read
  /// to the shard owning `v` (which holds v's complete adjacency). Hot
  /// rescan paths use this instead of Edge() so they stay shard-local.
  const TemporalEdge& EdgeNear(VertexId v, EdgeId id) const {
    (void)v;
    return Edge(id);
  }
  /// Alive(), answered from an edge record the caller already holds —
  /// a sharded view routes by the record's endpoints instead of the id.
  bool AliveEdge(const TemporalEdge& e) const { return Alive(e.id); }

  /// Approximate heap footprint of the live state: the slot and node
  /// pools, id ring and labels by capacity, the buckets by the count of
  /// buckets ever created (DESIGN.md §5). O(1); O(window) bytes under
  /// FIFO expiry.
  size_t EstimateMemoryBytes() const;

 private:
  static constexpr uint32_t kNilNode = UINT32_MAX;
  static constexpr uint32_t kInvalidSlot = UINT32_MAX;

  struct AdjNode {
    AdjEntry entry;
    uint32_t prev;
    uint32_t next;
  };

  /// One (edge label, neighbor label) partition of a vertex's adjacency:
  /// an intrusive doubly-linked list through nodes_, oldest at head.
  struct Bucket {
    uint32_t head = kNilNode;
    uint32_t tail = kNilNode;
    uint32_t size = 0;
    /// Entries whose edge leaves this vertex (in-count = size - out_size);
    /// drives the direction-aware signature masks on directed graphs.
    uint32_t out_size = 0;
  };

  struct VertexAdj {
    /// Keyed by PackPair(elabel, nbr_label). Buckets persist once created
    /// (bounded by the signatures seen at this vertex), so num_buckets_
    /// counts them all.
    std::unordered_map<uint64_t, Bucket> buckets;
    size_t degree = 0;
    /// Bloom signatures over the PackPair keys of the *non-empty* buckets
    /// (split by entry direction on directed graphs). Kept exact — bits
    /// are re-derived from the buckets whenever a count drops to zero —
    /// so MayHaveMatching is false-negative-free by construction.
    Bloom64 sig_any;
    Bloom64 sig_out;
    Bloom64 sig_in;
  };

  /// Pooled storage of one live edge. `node_src`/`node_dst` are the
  /// adjacency positions that make RemoveEdge O(1).
  struct EdgeSlot {
    TemporalEdge edge;
    uint32_t node_src = kNilNode;
    uint32_t node_dst = kNilNode;
    bool alive = false;
  };

  uint32_t ResolveSlot(EdgeId id) const {
    TCSM_CHECK(id >= base_id_ && id < next_id_ && "edge id out of window");
    const uint32_t slot = ring_[id - base_id_];
    TCSM_CHECK(slot != kInvalidSlot && "edge slot already reclaimed");
    // Generation safety: the slot's stored id must match the requested id
    // (a recycled slot carries a newer id, so stale ids can never alias).
    TCSM_CHECK(slots_[slot].edge.id == id);
    return slot;
  }

  uint32_t AllocNode(const AdjEntry& entry);
  /// Appends a node for `entry` at the tail of v's matching bucket.
  uint32_t LinkNode(VertexId v, const AdjEntry& entry);
  /// Unlinks `node` from v's matching bucket and frees it.
  void UnlinkNode(VertexId v, uint32_t node);
  /// Recomputes v's signature masks from its non-empty buckets (called
  /// when an unlink empties a bucket or a direction within one).
  void RebuildSigMasks(VertexId v);
  /// Returns pending tombstone slots to the free-list and advances the id
  /// ring past fully reclaimed ids.
  void DrainPendingFrees();

  bool directed_;
  size_t num_alive_ = 0;
  std::vector<Label> vertex_labels_;
  std::vector<VertexAdj> adj_;
  size_t num_buckets_ = 0;  // over all vertices; buckets are never erased

  // Node pool with an intrusive singly-linked free-list (through `next`).
  std::vector<AdjNode> nodes_;
  uint32_t free_node_head_ = kNilNode;

  // Slot pool. `pending_free_` holds tombstones of removed edges that are
  // reclaimed at the next InsertEdge (deferred reclamation).
  std::vector<EdgeSlot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> pending_free_;

  // Sliding id -> slot map for ids in [base_id_, next_id_).
  std::deque<uint32_t> ring_;
  EdgeId base_id_ = 0;
  EdgeId next_id_ = 0;
};

}  // namespace tcsm

#endif  // TCSM_GRAPH_TEMPORAL_GRAPH_H_
