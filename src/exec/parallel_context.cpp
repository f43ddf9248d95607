#include "exec/parallel_context.h"

#include "obs/stage_timer.h"

namespace tcsm {

ParallelStreamContext::ParallelStreamContext(const GraphSchema& schema,
                                             size_t num_threads)
    : SharedStreamContext(schema), pool_(num_threads) {}

void ParallelStreamContext::RunPhase(
    void (ContinuousEngine::*hook)(const TemporalEdge&),
    const TemporalEdge& ed) {
  const std::vector<ContinuousEngine*>& attached = engines();
  sinks_.RunOrDiscard([&] {
    pool_.ParallelFor(attached.size(),
                      [&](size_t i) { (attached[i]->*hook)(ed); });
  });
}

void ParallelStreamContext::OnEdgeArrivalBatch(const TemporalEdge* edges,
                                               size_t count) {
  const std::vector<ContinuousEngine*>& attached = engines();
  if (!pool_.pooled() || count <= 1 || attached.empty()) {
    SharedStreamContext::OnEdgeArrivalBatch(edges, count);
    return;
  }
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
  const std::vector<ContinuousEngine*>& attached = engines();
  if (!pool_.pooled() || count <= 1 || attached.empty()) {
    SharedStreamContext::OnEdgeExpiryBatch(edges, count);
    return;
  }
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
            ApplyRemoval(batch_scratch_[k / 2].id);
          } else if (k / 2 + 1 < count) {
            batch_scratch_.push_back(CaptureExpiry(edges[k / 2 + 1]));
          }
          steps.Restart();
        });
  });
}

void ParallelStreamContext::NotifyInserted(const TemporalEdge& ed) {
  if (!pool_.pooled()) {
    SharedStreamContext::NotifyInserted(ed);
    return;
  }
  const StageMetrics* const stages = stage_metrics();
  sinks_.Sync(engines());
  {
    const ScopedStage span(
        stages != nullptr ? stages->pipeline_step_ns : nullptr,
        trace_writer(), "insert_fanout", "pipeline");
    RunPhase(&ContinuousEngine::OnEdgeInserted, ed);
  }
  sinks_.DrainAll();
}

void ParallelStreamContext::NotifyExpiring(const TemporalEdge& ed) {
  if (!pool_.pooled()) {
    SharedStreamContext::NotifyExpiring(ed);
    return;
  }
  const StageMetrics* const stages = stage_metrics();
  sinks_.Sync(engines());
  {
    const ScopedStage span(
        stages != nullptr ? stages->pipeline_step_ns : nullptr,
        trace_writer(), "expiring_fanout", "pipeline");
    RunPhase(&ContinuousEngine::OnEdgeExpiring, ed);
  }
  // Draining here (before the context removes the edge) keeps even the
  // inter-phase sink timing identical to serial execution.
  sinks_.DrainAll();
}

void ParallelStreamContext::NotifyRemoved(const TemporalEdge& ed) {
  if (!pool_.pooled()) {
    SharedStreamContext::NotifyRemoved(ed);
    return;
  }
  const StageMetrics* const stages = stage_metrics();
  {
    const ScopedStage span(
        stages != nullptr ? stages->pipeline_step_ns : nullptr,
        trace_writer(), "removed_fanout", "pipeline");
    RunPhase(&ContinuousEngine::OnEdgeRemoved, ed);
  }
  sinks_.DrainAll();
}

}  // namespace tcsm
