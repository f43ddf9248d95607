// Fan-out over one shared stream: monitors many temporal query graphs by
// attaching one per-query TCM engine per query to a single
// SharedStreamContext. This is the deployment shape of the paper's
// motivating applications (a bank watches many laundering patterns; an
// IDS watches the Verizon top-10 attack patterns simultaneously) — and
// the reason the windowed data graph is shared: the context stores and
// updates it exactly once per event regardless of the query count, while
// each engine keeps only its per-query indexes. Sinks are tagged with the
// query index so detections stay attributable.
#ifndef TCSM_CORE_MULTI_ENGINE_H_
#define TCSM_CORE_MULTI_ENGINE_H_

#include <memory>
#include <vector>

#include "core/tcm_engine.h"
#include "exec/parallel_context.h"
#include "query/query_graph.h"

namespace tcsm {

/// Receives matches together with the index of the query that produced
/// them.
class MultiMatchSink {
 public:
  virtual ~MultiMatchSink() = default;
  virtual void OnMatch(size_t query_index, const Embedding& embedding,
                       MatchKind kind, uint64_t multiplicity) = 0;
};

/// Adapts one engine's reports into tagged calls on a multi-query
/// bundle's MultiMatchSink, read through `slot` so a set_multi_sink
/// between events retargets every query at once.
class TaggedSink : public MatchSink {
 public:
  TaggedSink(MultiMatchSink* const* slot, size_t index)
      : slot_(slot), index_(index) {}
  bool wants_each_embedding() const override { return *slot_ != nullptr; }
  void OnMatch(const Embedding& embedding, MatchKind kind,
               uint64_t multiplicity) override {
    if (*slot_ != nullptr) {
      (*slot_)->OnMatch(index_, embedding, kind, multiplicity);
    }
  }

 private:
  MultiMatchSink* const* slot_;
  size_t index_;
};

class MultiQueryEngine : public ParallelStreamContext {
 public:
  /// One TCM engine per query, all views of the one shared graph; all
  /// queries must share the schema's directedness. With `num_threads > 1`
  /// the per-engine notification work of every event is sharded across
  /// that many threads (including the driver thread); results are
  /// byte-identical to the serial default, in the same order
  /// (DESIGN.md §6).
  MultiQueryEngine(const std::vector<QueryGraph>& queries,
                   const GraphSchema& schema, TcmConfig config = {},
                   size_t num_threads = 1);

  void set_multi_sink(MultiMatchSink* sink) { multi_sink_ = sink; }

  size_t NumQueries() const { return owned_.size(); }
  const EngineCounters& QueryCounters(size_t query_index) const {
    return owned_[query_index]->counters();
  }
  const TcmEngine& QueryEngine(size_t query_index) const {
    return *owned_[query_index];
  }

 private:
  std::vector<std::unique_ptr<TcmEngine>> owned_;
  std::vector<std::unique_ptr<TaggedSink>> tagged_;
  MultiMatchSink* multi_sink_ = nullptr;
};

}  // namespace tcsm

#endif  // TCSM_CORE_MULTI_ENGINE_H_
