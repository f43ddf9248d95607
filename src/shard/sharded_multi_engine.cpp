#include "shard/sharded_multi_engine.h"

#include "common/logging.h"

namespace tcsm {

ShardedMultiQueryEngine::ShardedMultiQueryEngine(
    const std::vector<QueryGraph>& queries, const GraphSchema& schema,
    size_t num_shards, TcmConfig config, size_t num_threads)
    : ShardedStreamContext(schema, num_shards, num_threads) {
  TCSM_CHECK(!queries.empty());
  owned_.reserve(queries.size());
  tagged_.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    owned_.push_back(
        std::make_unique<ShardedTcmEngine>(queries[i], view(), config));
    tagged_.push_back(std::make_unique<TaggedSink>(&multi_sink_, i));
    owned_.back()->set_sink(tagged_.back().get());
    // Contiguous placement: nondecreasing in i, so the shard-major drain
    // order equals the attach order and the global stream matches serial.
    AttachToShard(i * num_shards / queries.size(), owned_.back().get());
  }
}

}  // namespace tcsm
