#include "exec/parallel_context.h"

#include "obs/stage_timer.h"

namespace tcsm {

ParallelStreamContext::ParallelStreamContext(const GraphSchema& schema,
                                             size_t num_threads)
    : SharedStreamContext(schema), pool_(num_threads) {}

void ParallelStreamContext::OnEdgeArrivalBatch(const TemporalEdge* edges,
                                               size_t count) {
  if (!pool_.pooled() || count == 0) {
    SharedStreamContext::OnEdgeArrivalBatch(edges, count);
    return;
  }
  const std::vector<ContinuousEngine*>& attached = engines();
  sinks_.Sync(attached);
  batch_scratch_.clear();
  batch_scratch_.reserve(count);
  batch_scratch_.push_back(ApplyArrival(edges[0]));
  const StageMetrics* const stages = stage_metrics();
  TraceWriter* const trace = trace_writer();
  // Step boundaries are only observable in the settle callback (the
  // driver participates in the pipeline job itself), so a StepObserver
  // closes each fan-out span there; the drain gets its own span.
  StepObserver steps(stages != nullptr ? stages->pipeline_step_ns : nullptr,
                     trace, "pipeline");
  sinks_.RunOrDiscard([&] {
    // Step k fans edge k out to the engines; the inter-step settle drains
    // the buffers (attach order) and applies the NEXT arrival, so its
    // insertion is published to the step-(k+1) bodies by the step fence.
    pool_.PipelineFor(
        count, attached.size(),
        [&](size_t k, size_t i) {
          attached[i]->OnEdgeInserted(batch_scratch_[k]);
        },
        [&](size_t k) {
          steps.Step("insert_fanout", "edge", k);
          {
            const ScopedStage drain(
                stages != nullptr ? stages->sink_drain_ns : nullptr, trace,
                "drain", "pipeline");
            sinks_.DrainAll();
          }
          if (k + 1 < count) batch_scratch_.push_back(ApplyArrival(edges[k + 1]));
          steps.Restart();
        });
  });
}

void ParallelStreamContext::OnEdgeExpiryBatch(const TemporalEdge* edges,
                                              size_t count) {
  if (!pool_.pooled() || count == 0) {
    SharedStreamContext::OnEdgeExpiryBatch(edges, count);
    return;
  }
  const std::vector<ContinuousEngine*>& attached = engines();
  sinks_.Sync(attached);
  batch_scratch_.clear();
  batch_scratch_.reserve(count);
  batch_scratch_.push_back(CaptureExpiry(edges[0]));
  const StageMetrics* const stages = stage_metrics();
  TraceWriter* const trace = trace_writer();
  StepObserver steps(stages != nullptr ? stages->pipeline_step_ns : nullptr,
                     trace, "pipeline");
  sinks_.RunOrDiscard([&] {
    // Two pipeline steps per edge: even steps run the expiring phase
    // against the pre-deletion graph, whose settle drains and THEN
    // removes the edge; odd steps run the removed phase, whose settle
    // drains and captures the next expiring edge.
    pool_.PipelineFor(
        2 * count, attached.size(),
        [&](size_t k, size_t i) {
          if (k % 2 == 0) {
            attached[i]->OnEdgeExpiring(batch_scratch_[k / 2]);
          } else {
            attached[i]->OnEdgeRemoved(batch_scratch_[k / 2]);
          }
        },
        [&](size_t k) {
          steps.Step(k % 2 == 0 ? "expiring_fanout" : "removed_fanout",
                     "edge", k / 2);
          {
            const ScopedStage drain(
                stages != nullptr ? stages->sink_drain_ns : nullptr, trace,
                "drain", "pipeline");
            sinks_.DrainAll();
          }
          if (k % 2 == 0) {
            ApplyRemoval(batch_scratch_[k / 2]);
          } else if (k / 2 + 1 < count) {
            batch_scratch_.push_back(CaptureExpiry(edges[k / 2 + 1]));
          }
          steps.Restart();
        });
  });
}

}  // namespace tcsm
