// Index-free baseline ("RapidFlow" stand-in; see DESIGN.md §5): on every
// update the query is re-enumerated locally around the update edge with
// plain label/degree pruning and no auxiliary index; the temporal order is
// verified only on complete embeddings. This mirrors the role RapidFlow
// plays in the paper's evaluation — a fast non-temporal continuous matcher
// whose output requires post-checking.
#ifndef TCSM_BASELINES_LOCAL_ENUM_ENGINE_H_
#define TCSM_BASELINES_LOCAL_ENUM_ENGINE_H_

#include <string>
#include <vector>

#include "common/bitmask.h"
#include "core/engine.h"
#include "graph/temporal_graph.h"

namespace tcsm {

class LocalEnumEngine : public ContinuousEngine {
 public:
  /// `graph` is the context-owned shared graph (see core/shared_context.h).
  LocalEnumEngine(const QueryGraph& query, const TemporalGraph& graph);

  LocalEnumEngine(const LocalEnumEngine&) = delete;
  LocalEnumEngine& operator=(const LocalEnumEngine&) = delete;

  std::string name() const override { return "LocalEnum-Post"; }
  void OnEdgeInserted(const TemporalEdge& ed) override;
  void OnEdgeExpiring(const TemporalEdge& ed) override;
  size_t StateMemoryBytes() const override;

 private:
  void FindMatches(const TemporalEdge& ed, MatchKind kind);
  void Extend(size_t step);
  void TryAssign(size_t step, EdgeId qe, const TemporalEdge& ed, VertexId a,
                 VertexId b);

  QueryGraph query_;
  const TemporalGraph& g_;  // shared, owned by the stream context
  /// order_from_[qe]: query edges in BFS order starting at qe, so every
  /// subsequent edge touches an already-covered vertex.
  std::vector<std::vector<EdgeId>> order_from_;

  MatchKind kind_ = MatchKind::kOccurred;
  bool timed_out_ = false;
  const std::vector<EdgeId>* order_ = nullptr;
  std::vector<VertexId> vmap_;
  std::vector<EdgeId> emap_;
  std::vector<Timestamp> ets_;
  Mask64 mapped_vertices_ = 0;
  Mask64 mapped_edges_ = 0;
};

}  // namespace tcsm

#endif  // TCSM_BASELINES_LOCAL_ENUM_ENGINE_H_
