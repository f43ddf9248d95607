// Multi-query fan-out over the sharded context: the sharded counterpart
// of core/multi_engine.h. One ShardedTcmEngine per query, all reading
// through the context's ShardedGraphView, placed CONTIGUOUSLY across the
// shards (engine i on shard i*S/N) — a shard-monotone attach order, so
// the shard-then-attach drain order of ShardedStreamContext equals the
// serial attach order and the GLOBAL match stream (not just each
// per-query stream) is byte-identical to an unsharded MultiQueryEngine
// run. Matches arrive tagged with the producing query's index through
// the same MultiMatchSink interface.
#ifndef TCSM_SHARD_SHARDED_MULTI_ENGINE_H_
#define TCSM_SHARD_SHARDED_MULTI_ENGINE_H_

#include <memory>
#include <vector>

#include "core/multi_engine.h"
#include "query/query_graph.h"
#include "shard/sharded_context.h"
#include "shard/sharded_engine.h"

namespace tcsm {

class ShardedMultiQueryEngine : public ShardedStreamContext {
 public:
  /// One TCM engine per query over `num_shards` vertex partitions; all
  /// queries must share the schema's directedness. `num_threads` as in
  /// ShardedStreamContext (0 = one per shard).
  ShardedMultiQueryEngine(const std::vector<QueryGraph>& queries,
                          const GraphSchema& schema, size_t num_shards,
                          TcmConfig config = {}, size_t num_threads = 0);

  void set_multi_sink(MultiMatchSink* sink) { multi_sink_ = sink; }

  size_t NumQueries() const { return owned_.size(); }
  const EngineCounters& QueryCounters(size_t query_index) const {
    return owned_[query_index]->counters();
  }
  const ShardedTcmEngine& QueryEngine(size_t query_index) const {
    return *owned_[query_index];
  }
  /// The shard query i's engine was placed on (i * S / N).
  size_t QueryShard(size_t query_index) const {
    return query_index * num_shards() / owned_.size();
  }

 private:
  std::vector<std::unique_ptr<ShardedTcmEngine>> owned_;
  std::vector<std::unique_ptr<TaggedSink>> tagged_;
  MultiMatchSink* multi_sink_ = nullptr;
};

}  // namespace tcsm

#endif  // TCSM_SHARD_SHARDED_MULTI_ENGINE_H_
