// Dynamic Candidate Space (DCS) — the auxiliary structure of SymBi
// [VLDB'21] that the paper's Algorithm 1 maintains (DCSInsertion /
// DCSDeletion), rebuilt from scratch here.
//
// A DCS node is a pair (u, v) of a query vertex and a label-compatible data
// vertex. A DCS edge is a triple (qe, data edge, flip) that passed
// filtering — for TCM only TC-matchable pairs (w.r.t. both q̂ and q̂⁻¹)
// enter the DCS; for the SymBi baseline every statically feasible pair
// does.
//
// Two bits per node are maintained incrementally with support counters:
//   D1[u,v] = 1 iff for every DAG edge (up, u) there is a DCS edge from
//             some (up, vp) with D1[up,vp] = 1 (weak embedding of the
//             ancestor side exists at v);
//   D2[u,v] = 1 iff D1[u,v] = 1 and for every DAG edge (u, uc) there is a
//             DCS edge to some (uc, vc) with D2[uc,vc] = 1.
//
// Parallel DCS edges between the same image pair are kept sorted by
// timestamp so ECM(e) range queries during backtracking are binary
// searches (Definition V.2); they are also the only membership record.
// The index owns SymBi's seed and extension steps, which TCM and the
// SymBi post-filter baseline share.
#ifndef TCSM_DCS_DCS_INDEX_H_
#define TCSM_DCS_DCS_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitmask.h"
#include "common/types.h"
#include "dag/query_dag.h"
#include "graph/temporal_edge.h"
#include "query/query_graph.h"

namespace tcsm {

/// One parallel DCS edge between a fixed pair of data vertices.
struct ParallelEdge {
  Timestamp ts;
  EdgeId edge;
  bool flip;
};

struct DcsStats {
  size_t num_edges = 0;     // DCS edges (filter survivors) — Table V top
  size_t num_nodes = 0;     // (u, v) pairs ever touched
  size_t num_d1_nodes = 0;
  size_t num_d2_nodes = 0;  // candidates after filtering — Table V bottom
};

class DcsIndex {
 public:
  using NbrMap = std::unordered_map<VertexId, uint32_t>;

  /// The next query vertex to map (SymBi's adaptive matching order): the
  /// unmapped vertex adjacent to the mapping with the fewest DCS
  /// candidates, reached through the mapped-side query edge `via`.
  /// `candidates` is nullptr or empty on a structural failure.
  struct Extension {
    VertexId u = kInvalidVertex;
    EdgeId via = kInvalidEdge;
    const NbrMap* candidates = nullptr;
  };

  DcsIndex(const QueryGraph* query, const QueryDag* dag);

  /// True iff (qe, ed, flip) is a DCS edge (a search in its parallel list).
  bool Contains(EdgeId qe, const TemporalEdge& ed, bool flip) const;

  /// Inserts/removes one DCS edge and restores D1/D2 (DCSInsertion /
  /// DCSDeletion). `flip == false` maps qe.u -> ed.src.
  void Insert(EdgeId qe, const TemporalEdge& ed, bool flip);
  void Remove(EdgeId qe, const TemporalEdge& ed, bool flip);

  /// Sorted parallel DCS edges whose endpoint images are
  /// qe.u -> img_u, qe.v -> img_v; nullptr when none.
  const std::vector<ParallelEdge>* Parallel(EdgeId qe, VertexId img_u,
                                            VertexId img_v) const;

  bool D1(VertexId u, VertexId v) const;
  bool D2(VertexId u, VertexId v) const;

  /// Candidate images for the unmapped endpoint of `via_edge`, given that
  /// its other endpoint `mapped_qv` is mapped to `mapped_img`. Keys are
  /// data vertices, values are parallel-edge counts. nullptr when none.
  const NbrMap* Candidates(EdgeId via_edge, VertexId mapped_qv,
                           VertexId mapped_img) const;

  /// Seeds of backtracking from update edge `ed`: replaces `*out` with
  /// every (qe, flip) whose triple is a DCS edge with both endpoint
  /// images D2, in (qe, flip) order.
  void Seeds(const TemporalEdge& ed,
             std::vector<std::pair<EdgeId, bool>>* out) const;

  /// The extension step for the partial mapping `vmap` over the query
  /// vertices in `mapped` (the query must be connected and the mapping
  /// must not be complete).
  Extension NextExtension(Mask64 mapped,
                          const std::vector<VertexId>& vmap) const;

  /// True when candidate `w` of `ext` may be mapped to ext.u: D2 holds,
  /// no mapped query vertex images w (injectivity), and w is a DCS
  /// neighbor across every other query edge joining ext.u to the mapping.
  bool Admits(const Extension& ext, VertexId w, Mask64 mapped,
              const std::vector<VertexId>& vmap) const;

  const DcsStats& stats() const { return stats_; }
  size_t EstimateMemoryBytes() const;

  /// Exhaustively re-derives every support counter, D1/D2 bit, and
  /// statistic from the stored edge sets and CHECK-fails on any
  /// inconsistency. O(index size); intended for tests.
  void ValidateInvariantsForTest() const;

  const QueryDag& dag() const { return *dag_; }

 private:
  struct Node {
    bool d1 = false;
    bool d2 = false;
    std::vector<NbrMap> up;      // per parent-edge slot: vp -> #parallel
    std::vector<NbrMap> down;    // per child-edge slot: vc -> #parallel
    std::vector<uint32_t> n1;    // per parent-edge slot: support count
    std::vector<uint32_t> n2;    // per child-edge slot: support count
  };

  struct Check {
    VertexId u;
    VertexId v;
    bool is_d1;
  };

  Node* FindNode(VertexId u, VertexId v);
  const Node* FindNode(VertexId u, VertexId v) const;
  Node& GetOrCreateNode(VertexId u, VertexId v);

  bool ComputeD1(VertexId u, const Node& node) const;
  bool ComputeD2(VertexId u, const Node& node) const;

  /// Re-evaluates one bit; on change, adjusts dependent support counters
  /// and enqueues affected nodes.
  void RecheckD1(VertexId u, VertexId v);
  void RecheckD2(VertexId u, VertexId v);
  void ProcessPending();
  /// Erases (u, v) if it has no incident DCS edges left.
  void MaybeEraseNode(VertexId u, VertexId v);

  const QueryGraph* query_;
  const QueryDag* dag_;

  /// Slot of query edge e within ParentEdges(ChildOf(e)) and
  /// ChildEdges(ParentOf(e)).
  std::vector<uint32_t> pslot_;
  std::vector<uint32_t> cslot_;

  std::vector<std::unordered_map<VertexId, Node>> nodes_;  // per u
  std::vector<std::unordered_map<uint64_t, std::vector<ParallelEdge>>>
      parallel_;  // per qe, keyed by PackPair(img_u, img_v)

  std::vector<Check> pending_;
  DcsStats stats_;
};

}  // namespace tcsm

#endif  // TCSM_DCS_DCS_INDEX_H_
