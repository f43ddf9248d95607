// SymBi-style baseline ("SymBi" in the paper's Section VI): continuous
// subgraph matching with the DCS structure but *without* any temporal
// filtering — every statically feasible (query edge, data edge) pair is a
// DCS edge — and with the temporal order checked only on complete
// embeddings (post-filtering). Its running time is therefore insensitive
// to the temporal-order density (Figure 8's flat curves).
#ifndef TCSM_BASELINES_POST_FILTER_ENGINE_H_
#define TCSM_BASELINES_POST_FILTER_ENGINE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/bitmask.h"
#include "core/engine.h"
#include "dag/query_dag.h"
#include "dcs/dcs_index.h"
#include "graph/temporal_graph.h"

namespace tcsm {

class PostFilterEngine : public ContinuousEngine {
 public:
  /// `graph` is the context-owned shared graph (see core/shared_context.h).
  PostFilterEngine(const QueryGraph& query, const TemporalGraph& graph);

  PostFilterEngine(const PostFilterEngine&) = delete;
  PostFilterEngine& operator=(const PostFilterEngine&) = delete;

  std::string name() const override { return "SymBi-Post"; }
  void OnEdgeInserted(const TemporalEdge& ed) override;
  void OnEdgeExpiring(const TemporalEdge& ed) override;
  void OnEdgeRemoved(const TemporalEdge& ed) override;
  size_t StateMemoryBytes() const override;

  const DcsIndex& dcs() const { return dcs_; }

 private:
  void ApplyTriples(const TemporalEdge& ed, bool inserting);
  void FindMatches(const TemporalEdge& ed, MatchKind kind);
  /// Vertex-only backtracking (SymBi style); edges are assigned after all
  /// vertices are mapped, and ≺ is verified on the complete assignment.
  bool ExtendVertices();
  bool AssignEdges(size_t edge_idx);
  void ReportIfTimeConstrained();

  QueryGraph query_;
  QueryDag dag_;
  const TemporalGraph& g_;  // shared, owned by the stream context
  DcsIndex dcs_;

  MatchKind kind_ = MatchKind::kOccurred;
  bool timed_out_ = false;
  EdgeId seed_edge_ = kInvalidEdge;
  std::vector<VertexId> vmap_;
  std::vector<EdgeId> emap_;
  std::vector<Timestamp> ets_;
  Mask64 mapped_vertices_ = 0;
  std::vector<std::pair<EdgeId, bool>> seeds_;  // scratch for FindMatches
  std::vector<EdgeId> unassigned_edges_;
};

}  // namespace tcsm

#endif  // TCSM_BASELINES_POST_FILTER_ENGINE_H_
