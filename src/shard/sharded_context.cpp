#include "shard/sharded_context.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace tcsm {

namespace {

void InsertInto(TemporalGraph* g, const TemporalEdge& ed) {
  const EdgeId id = g->InsertEdgeAs(ed.id, ed.src, ed.dst, ed.ts, ed.label);
  TCSM_CHECK(id == ed.id && "edge ids must be dense arrival indices");
}

void RemoveFrom(TemporalGraph* g, const TemporalEdge& ed) {
  g->RemoveEdge(ed.id);
}

}  // namespace

ShardedStreamContext::ShardedStreamContext(const GraphSchema& schema,
                                           size_t num_shards,
                                           size_t num_threads)
    // The base class's canonical graph is never written, so it gets no
    // vertex set to label, and RetireCanonicalGraph() below makes graph()
    // CHECK-fail.
    : ParallelStreamContext(GraphSchema{schema.directed, {}},
                            num_threads == 0 ? num_shards : num_threads),
      partitioner_(std::make_unique<HashVertexPartitioner>(num_shards)),
      summaries_(schema.vertex_labels.size(), schema.directed) {
  RetireCanonicalGraph();
  graphs_.reserve(num_shards);
  std::vector<const TemporalGraph*> borrowed;
  borrowed.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto g = std::make_unique<TemporalGraph>(schema.directed);
    // Every shard graph carries the full static vertex set: labels are
    // read without routing, and a mirrored edge's foreign endpoint needs
    // its label for the adjacency bucket key.
    g->EnsureVertices(schema.vertex_labels.size());
    for (size_t v = 0; v < schema.vertex_labels.size(); ++v) {
      g->SetVertexLabel(static_cast<VertexId>(v), schema.vertex_labels[v]);
    }
    borrowed.push_back(g.get());
    graphs_.push_back(std::move(g));
  }
  view_ = std::make_unique<ShardedGraphView>(partitioner_.get(),
                                             std::move(borrowed), &summaries_);
}

void ShardedStreamContext::AttachToShard(size_t shard,
                                         ContinuousEngine* engine) {
  TCSM_CHECK(shard < graphs_.size());
  Attach(engine);
}

void ShardedStreamContext::MutateOwners(
    const TemporalEdge& ed,
    void (*mutate)(TemporalGraph*, const TemporalEdge&)) {
  const size_t src_owner = partitioner_->Owner(ed.src);
  const size_t dst_owner = partitioner_->Owner(ed.dst);
  mutate(graphs_[src_owner].get(), ed);
  if (dst_owner != src_owner) mutate(graphs_[dst_owner].get(), ed);
  summaries_.Publish(ed.src, *graphs_[src_owner]);
  summaries_.Publish(ed.dst, *graphs_[dst_owner]);
  if (const StageMetrics* const m = stage_metrics()) {
    m->summary_publishes->Add(2);
  }
}

const TemporalEdge& ShardedStreamContext::ApplyArrival(
    const TemporalEdge& ed) {
  MutateOwners(ed, InsertInto);
  return graphs_[partitioner_->Owner(ed.src)]->Edge(ed.id);
}

TemporalEdge ShardedStreamContext::CaptureExpiry(
    const TemporalEdge& ed) const {
  const TemporalGraph& g = *graphs_[partitioner_->Owner(ed.src)];
  TCSM_CHECK(ed.id < g.NumEdgesEver() && g.Alive(ed.id));
  return g.Edge(ed.id);
}

void ShardedStreamContext::ApplyRemoval(const TemporalEdge& ed) {
  MutateOwners(ed, RemoveFrom);
}

size_t ShardedStreamContext::EstimateMemoryBytes() const {
  // The base context's graph stays empty (only the shard graphs hold
  // edges), so account the sharded state directly: mirrored edges are
  // counted once per holding shard — that duplication is real memory,
  // the price of owner-complete adjacency.
  size_t bytes = summaries_.EstimateMemoryBytes();
  for (const std::unique_ptr<TemporalGraph>& g : graphs_) {
    bytes += g->EstimateMemoryBytes();
  }
  for (const ContinuousEngine* engine : engines()) {
    bytes += engine->EstimateMemoryBytes();
  }
  return bytes;
}

}  // namespace tcsm
