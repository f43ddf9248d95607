#include "core/multi_engine.h"

#include "common/logging.h"

namespace tcsm {

MultiQueryEngine::MultiQueryEngine(const std::vector<QueryGraph>& queries,
                                   const GraphSchema& schema,
                                   TcmConfig config, size_t num_threads)
    : ParallelStreamContext(schema, num_threads) {
  TCSM_CHECK(!queries.empty());
  owned_.reserve(queries.size());
  tagged_.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    owned_.push_back(std::make_unique<TcmEngine>(queries[i], graph(), config));
    tagged_.push_back(std::make_unique<TaggedSink>(&multi_sink_, i));
    owned_.back()->set_sink(tagged_.back().get());
    Attach(owned_.back().get());
  }
}

}  // namespace tcsm
