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

#include "common/logging.h"
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

/// The graph a bundle binds its engines to: an unsharded context's
/// canonical graph. The sharded context's overload (shard/sharded_context.h)
/// returns its ShardedGraphView; overload resolution picks the most
/// derived context.
inline const TemporalGraph& EngineGraph(const SharedStreamContext& context) {
  return context.graph();
}

/// The multi-query bundle, written once over its context: one EngineT per
/// query, each bound to EngineGraph(context) and reporting through a
/// TaggedSink, attached in query order — so the global match stream is
/// the serial attach order at any thread or shard count (DESIGN.md §6,
/// §10). MultiQueryEngine and ShardedMultiQueryEngine
/// (shard/sharded_engine.h) are its two instantiations.
template <typename ContextT, typename EngineT>
class BasicMultiQueryEngine : public ContextT {
 public:
  /// All queries must share the schema's directedness. `context_args`
  /// follow the schema into the context's constructor: `num_threads` for
  /// MultiQueryEngine (default 1, the serial context; results are
  /// byte-identical at any width), `num_shards, num_threads` for
  /// ShardedMultiQueryEngine.
  template <typename... ContextArgs>
  BasicMultiQueryEngine(const std::vector<QueryGraph>& queries,
                        const GraphSchema& schema, TcmConfig config = {},
                        ContextArgs... context_args)
      : ContextT(schema, context_args...) {
    TCSM_CHECK(!queries.empty());
    owned_.reserve(queries.size());
    tagged_.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      owned_.push_back(
          std::make_unique<EngineT>(queries[i], EngineGraph(*this), config));
      tagged_.push_back(std::make_unique<TaggedSink>(&multi_sink_, i));
      owned_.back()->set_sink(tagged_.back().get());
      this->Attach(owned_.back().get());
    }
  }

  void set_multi_sink(MultiMatchSink* sink) { multi_sink_ = sink; }

  size_t NumQueries() const { return owned_.size(); }
  const EngineCounters& QueryCounters(size_t query_index) const {
    return owned_[query_index]->counters();
  }
  const EngineT& QueryEngine(size_t query_index) const {
    return *owned_[query_index];
  }

 private:
  std::vector<std::unique_ptr<EngineT>> owned_;
  std::vector<std::unique_ptr<TaggedSink>> tagged_;
  MultiMatchSink* multi_sink_ = nullptr;
};

/// One TCM engine per query over the one shared graph; with
/// `num_threads > 1` every event fans out across that many threads
/// (including the driver thread).
using MultiQueryEngine =
    BasicMultiQueryEngine<ParallelStreamContext, TcmEngine>;

}  // namespace tcsm

#endif  // TCSM_CORE_MULTI_ENGINE_H_
