#include "shard/sharded_context.h"

#include "common/logging.h"
#include "obs/stage_timer.h"

namespace tcsm {

ShardedStreamContext::ShardedStreamContext(const GraphSchema& schema,
                                           size_t num_shards,
                                           size_t num_threads)
    : SharedStreamContext(schema),
      partitioner_(std::make_unique<HashVertexPartitioner>(num_shards)),
      summaries_(schema.vertex_labels.size(), schema.directed),
      pool_(num_threads == 0 ? num_shards : num_threads),
      shard_members_(num_shards) {
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
  TCSM_CHECK(shard < shard_members_.size());
  const size_t index = engines().size();
  SharedStreamContext::Attach(engine);
  shard_members_[shard].push_back(index);
}

void ShardedStreamContext::Attach(ContinuousEngine* engine) {
  AttachToShard(engines().size() % shard_members_.size(), engine);
}

void ShardedStreamContext::ApplyShardArrival(size_t s,
                                             const TemporalEdge& ed) {
  const bool owns_src = partitioner_->Owner(ed.src) == s;
  const bool owns_dst = partitioner_->Owner(ed.dst) == s;
  if (!owns_src && !owns_dst) return;
  TemporalGraph& g = *graphs_[s];
  const EdgeId id = g.InsertEdgeAs(ed.id, ed.src, ed.dst, ed.ts, ed.label);
  TCSM_CHECK(id == ed.id && "edge ids must be dense arrival indices");
  if (owns_src) summaries_.Publish(ed.src, g);
  if (owns_dst) summaries_.Publish(ed.dst, g);
  if (const StageMetrics* const m = stage_metrics()) {
    m->summary_publishes->Add(static_cast<uint64_t>(owns_src) +
                              static_cast<uint64_t>(owns_dst));
  }
}

void ShardedStreamContext::ApplyShardRemoval(size_t s,
                                             const TemporalEdge& ed) {
  const bool owns_src = partitioner_->Owner(ed.src) == s;
  const bool owns_dst = partitioner_->Owner(ed.dst) == s;
  if (!owns_src && !owns_dst) return;
  TemporalGraph& g = *graphs_[s];
  g.RemoveEdge(ed.id);
  if (owns_src) summaries_.Publish(ed.src, g);
  if (owns_dst) summaries_.Publish(ed.dst, g);
  if (const StageMetrics* const m = stage_metrics()) {
    m->summary_publishes->Add(static_cast<uint64_t>(owns_src) +
                              static_cast<uint64_t>(owns_dst));
  }
}

const TemporalEdge& ShardedStreamContext::CanonicalArrival(
    const TemporalEdge& ed) const {
  return graphs_[partitioner_->Owner(ed.src)]->Edge(ed.id);
}

TemporalEdge ShardedStreamContext::CaptureShardExpiry(
    const TemporalEdge& ed) const {
  const TemporalGraph& g = *graphs_[partitioner_->Owner(ed.src)];
  TCSM_CHECK(ed.id < g.NumEdgesEver() && g.Alive(ed.id));
  return g.Edge(ed.id);
}

void ShardedStreamContext::RunShardHook(
    size_t s, void (ContinuousEngine::*hook)(const TemporalEdge&),
    const TemporalEdge& ed) {
  const std::vector<ContinuousEngine*>& attached = engines();
  for (const size_t i : shard_members_[s]) (attached[i]->*hook)(ed);
}

void ShardedStreamContext::DrainSinks() {
  for (const std::vector<size_t>& members : shard_members_) {
    for (const size_t i : members) sinks_.Drain(i);
  }
}

void ShardedStreamContext::OnEdgeArrivalBatch(const TemporalEdge* edges,
                                              size_t count) {
  // Pooled lanes buffer their engines' reports for the ordered drain;
  // inline lanes (one thread) already run in drain order, so engines
  // report straight to their sinks.
  if (pool_.pooled()) sinks_.Sync(engines());
  batch_scratch_.clear();
  batch_scratch_.reserve(count);
  const size_t shards = graphs_.size();
  const StageMetrics* const stages = stage_metrics();
  TraceWriter* const trace = trace_writer();
  Histogram* const lane_hist =
      stages != nullptr ? stages->shard_lane_ns : nullptr;
  StepObserver steps(stages != nullptr ? stages->pipeline_step_ns : nullptr,
                     trace, "pipeline");
  sinks_.RunOrDiscard([&] {
    // Two steps per arrival. Even steps mutate: lane s inserts edge k
    // into shard s (if involved) and republishes the rows of its owned
    // endpoints; the settle captures the canonical record. Odd steps
    // notify: lane s runs shard s's engines, which read any shard's
    // graph and the summary rows — published a step earlier, so the
    // step fence orders writer-before-readers; the settle drains the
    // buffers in shard-then-attach order before edge k+1 mutates.
    pool_.PipelineFor(
        2 * count, shards,
        [&](size_t k, size_t s) {
          if (k % 2 == 0) {
            const ScopedStage lane(lane_hist, trace, "lane_mutate", "shard",
                                   "shard", s);
            ApplyShardArrival(s, edges[k / 2]);
          } else {
            const ScopedStage lane(lane_hist, trace, "lane_notify", "shard",
                                   "shard", s);
            RunShardHook(s, &ContinuousEngine::OnEdgeInserted,
                         batch_scratch_[k / 2]);
          }
        },
        [&](size_t k) {
          steps.Step(k % 2 == 0 ? "mutate_step" : "notify_step", "edge",
                     k / 2);
          if (k % 2 == 0) {
            batch_scratch_.push_back(CanonicalArrival(edges[k / 2]));
          } else {
            const ScopedStage drain(
                stages != nullptr ? stages->sink_drain_ns : nullptr, trace,
                "drain", "pipeline");
            DrainSinks();
          }
          steps.Restart();
        });
  });
}

void ShardedStreamContext::OnEdgeExpiryBatch(const TemporalEdge* edges,
                                             size_t count) {
  if (count == 0) return;
  if (pool_.pooled()) sinks_.Sync(engines());
  batch_scratch_.clear();
  batch_scratch_.reserve(count);
  batch_scratch_.push_back(CaptureShardExpiry(edges[0]));
  const size_t shards = graphs_.size();
  const StageMetrics* const stages = stage_metrics();
  TraceWriter* const trace = trace_writer();
  Histogram* const lane_hist =
      stages != nullptr ? stages->shard_lane_ns : nullptr;
  StepObserver steps(stages != nullptr ? stages->pipeline_step_ns : nullptr,
                     trace, "pipeline");
  sinks_.RunOrDiscard([&] {
    // Three steps per expiry: expiring notifications against the
    // pre-removal shards (settle drains — the pre-removal drain keeps
    // the sink timing identical to serial), then the shard-local
    // removals + row republication, then removed notifications (settle
    // drains and captures the next expiring edge).
    pool_.PipelineFor(
        3 * count, shards,
        [&](size_t k, size_t s) {
          const TemporalEdge& ed = batch_scratch_[k / 3];
          switch (k % 3) {
            case 0: {
              const ScopedStage lane(lane_hist, trace, "lane_expiring",
                                     "shard", "shard", s);
              RunShardHook(s, &ContinuousEngine::OnEdgeExpiring, ed);
              break;
            }
            case 1: {
              const ScopedStage lane(lane_hist, trace, "lane_remove", "shard",
                                     "shard", s);
              ApplyShardRemoval(s, ed);
              break;
            }
            default: {
              const ScopedStage lane(lane_hist, trace, "lane_removed",
                                     "shard", "shard", s);
              RunShardHook(s, &ContinuousEngine::OnEdgeRemoved, ed);
              break;
            }
          }
        },
        [&](size_t k) {
          switch (k % 3) {
            case 0:
              steps.Step("expiring_step", "edge", k / 3);
              break;
            case 1:
              steps.Step("remove_step", "edge", k / 3);
              break;
            default:
              steps.Step("removed_step", "edge", k / 3);
              break;
          }
          if (k % 3 == 0) {
            const ScopedStage drain(
                stages != nullptr ? stages->sink_drain_ns : nullptr, trace,
                "drain", "pipeline");
            DrainSinks();
          } else if (k % 3 == 2) {
            {
              const ScopedStage drain(
                  stages != nullptr ? stages->sink_drain_ns : nullptr, trace,
                  "drain", "pipeline");
              DrainSinks();
            }
            if (k / 3 + 1 < count) {
              batch_scratch_.push_back(CaptureShardExpiry(edges[k / 3 + 1]));
            }
          }
          steps.Restart();
        });
  });
}

size_t ShardedStreamContext::EstimateMemoryBytes() const {
  // The base context's graph stays empty (only the shard graphs hold
  // edges), so account the sharded state directly: mirrored edges are
  // counted once per holding shard — that duplication is real memory,
  // the price of shard-local scans.
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
