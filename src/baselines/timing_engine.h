// Timing-style baseline (Li et al., ICDE'19; see DESIGN.md §5): the query
// edges are ordered by a linear extension of ≺ and *all* partial
// embeddings of every prefix — including complete ones — are materialized.
// Arrivals join the new edge into every position and cascade extensions
// with existing edges; expirations evict every partial containing the
// expired edge. Cheap per-event joins, but worst-case exponential space —
// the asymmetry Figure 10 demonstrates against TCM's polynomial-space
// index. A configurable record cap converts runaway materialization into
// an "unsolved" result instead of memory exhaustion.
#ifndef TCSM_BASELINES_TIMING_ENGINE_H_
#define TCSM_BASELINES_TIMING_ENGINE_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitmask.h"
#include "core/engine.h"
#include "graph/temporal_graph.h"

namespace tcsm {

struct TimingConfig {
  /// Total materialized records across all levels before the engine
  /// declares overflow (results incomplete, query counted as unsolved).
  size_t max_records = 2'000'000;
};

class TimingEngine : public ContinuousEngine {
 public:
  /// `graph` is the context-owned shared graph (see core/shared_context.h).
  TimingEngine(const QueryGraph& query, const TemporalGraph& graph,
               TimingConfig config = {});

  TimingEngine(const TimingEngine&) = delete;
  TimingEngine& operator=(const TimingEngine&) = delete;

  std::string name() const override { return "Timing"; }
  void OnEdgeInserted(const TemporalEdge& ed) override;
  void OnEdgeExpiring(const TemporalEdge& ed) override;
  size_t StateMemoryBytes() const override;
  bool overflowed() const override { return overflowed_; }

  /// Total live records (all levels) — exposed for tests/benches.
  size_t NumRecords() const { return total_records_; }

 private:
  /// A partial embedding of the prefix order_[0..level]: vertex images in
  /// the layout covered_[level], and data edge ids per prefix position.
  struct Record {
    std::vector<VertexId> vimg;
    std::vector<EdgeId> eimg;
  };

  struct Level {
    std::unordered_map<uint64_t, Record> records;  // pid -> record
    /// Member data edge -> pids (lazily compacted).
    std::unordered_map<EdgeId, std::vector<uint64_t>> by_edge;
    /// Join key (images of shared vertices with the next level) -> pids.
    std::unordered_map<uint64_t, std::vector<uint64_t>> join_index;
  };

  /// Images of a query edge's endpoints under flip.
  static std::pair<VertexId, VertexId> ImagesOf(const TemporalEdge& ed,
                                                bool flip) {
    return flip ? std::make_pair(ed.dst, ed.src)
                : std::make_pair(ed.src, ed.dst);
  }

  /// Join key of a record at `level` for extension to level+1.
  uint64_t JoinKeyOfRecord(size_t level, const Record& rec) const;
  /// Join key required by mapping the edge of level+1 as (img_u, img_v).
  uint64_t JoinKeyOfEdge(size_t level, VertexId img_u, VertexId img_v) const;

  /// Validates injectivity/consistency/temporal order and, on success,
  /// materializes the extension of `rec` (at level-1) with `ed` at `level`
  /// and cascades it. `rec == nullptr` for level 0.
  void TryExtend(size_t level, const Record* rec, const TemporalEdge& ed,
                 bool flip);

  /// Stores a record at `level`, reports it if complete, and extends it
  /// with existing edges for level+1.
  void Store(size_t level, Record rec);

  void ReportRecord(const Record& rec, MatchKind kind);
  void EraseRecord(size_t level, uint64_t pid);

  QueryGraph query_;
  TimingConfig config_;
  const TemporalGraph& g_;  // shared, owned by the stream context

  std::vector<EdgeId> order_;          // linear extension of ≺
  std::vector<size_t> pos_of_edge_;    // query edge -> prefix position
  /// Per level: query vertices covered by the prefix, slot per vertex.
  std::vector<std::vector<VertexId>> covered_;
  std::vector<std::vector<int8_t>> vslot_;
  /// Per level: endpoints of order_[level] already covered by level-1.
  std::vector<std::vector<VertexId>> shared_;
  /// Per level: positions j < level with order_[j] ≺ order_[level].
  std::vector<std::vector<size_t>> pred_positions_;

  std::vector<Level> levels_;
  /// Live statically feasible data edges per query edge (for joins whose
  /// new edge shares no vertex with the prefix).
  std::vector<std::unordered_set<EdgeId>> feasible_live_;

  uint64_t next_pid_ = 1;
  size_t total_records_ = 0;
  bool overflowed_ = false;
};

}  // namespace tcsm

#endif  // TCSM_BASELINES_TIMING_ENGINE_H_
