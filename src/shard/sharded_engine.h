// The TCM engine instantiated over the sharded graph view. The matching
// code is the BasicTcmEngine template unchanged — this header only names
// the instantiation (and the multi-query bundle over it) and keeps its
// compile cost in one translation unit (engine_instantiations.cpp),
// mirroring how core/tcm_engine.h handles the canonical single-graph
// TcmEngine.
#ifndef TCSM_SHARD_SHARDED_ENGINE_H_
#define TCSM_SHARD_SHARDED_ENGINE_H_

#include "core/multi_engine.h"
#include "core/tcm_engine.h"
#include "shard/sharded_context.h"
#include "shard/sharded_graph.h"

namespace tcsm {

/// Per-query TCM engine reading through a ShardedGraphView. Construct
/// against ShardedStreamContext::view() and Attach it like any engine.
using ShardedTcmEngine = BasicTcmEngine<ShardedGraphView>;

extern template class BasicMaxMinIndex<ShardedGraphView>;
extern template class BasicTcmEngine<ShardedGraphView>;

/// The multi-query bundle (core/multi_engine.h) over a sharded context:
/// ShardedMultiQueryEngine(queries, schema, config, num_shards,
/// num_threads).
using ShardedMultiQueryEngine =
    BasicMultiQueryEngine<ShardedStreamContext, ShardedTcmEngine>;

}  // namespace tcsm

#endif  // TCSM_SHARD_SHARDED_ENGINE_H_
