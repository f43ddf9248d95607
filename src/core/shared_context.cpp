#include "core/shared_context.h"

#include "common/logging.h"
#include "obs/observability.h"

namespace tcsm {

SharedStreamContext::SharedStreamContext(const GraphSchema& schema)
    : g_(schema.directed) {
  g_.EnsureVertices(schema.vertex_labels.size());
  for (size_t v = 0; v < schema.vertex_labels.size(); ++v) {
    g_.SetVertexLabel(static_cast<VertexId>(v), schema.vertex_labels[v]);
  }
}

void SharedStreamContext::Attach(ContinuousEngine* engine) {
  TCSM_CHECK(engine != nullptr);
  engine->set_deadline(deadline_);
  engines_.push_back(engine);
}

const TemporalEdge& SharedStreamContext::ApplyArrival(const TemporalEdge& ed) {
  // The driver assigns dense arrival indices; honoring them (rather than
  // recounting) keeps EdgeId-keyed state identical to a full replay even
  // when a seeked replay starts mid-stream at a non-zero first id.
  const EdgeId id = g_.InsertEdgeAs(ed.id, ed.src, ed.dst, ed.ts, ed.label);
  return g_.Edge(id);
}

TemporalEdge SharedStreamContext::CaptureExpiry(const TemporalEdge& ed) const {
  TCSM_CHECK(ed.id < g_.NumEdgesEver() && g_.Alive(ed.id));
  // Copy: the canonical record outlives the removal, but engines receive a
  // stable value either way.
  return g_.Edge(ed.id);
}

void SharedStreamContext::OnEdgeArrivalBatch(const TemporalEdge* edges,
                                             size_t count) {
  for (size_t i = 0; i < count; ++i) NotifyInserted(ApplyArrival(edges[i]));
}

void SharedStreamContext::OnEdgeExpiryBatch(const TemporalEdge* edges,
                                            size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const TemporalEdge applied = CaptureExpiry(edges[i]);
    NotifyExpiring(applied);
    ApplyRemoval(applied);
    NotifyRemoved(applied);
  }
}

void SharedStreamContext::NotifyInserted(const TemporalEdge& ed) {
  for (ContinuousEngine* engine : engines_) engine->OnEdgeInserted(ed);
}

void SharedStreamContext::NotifyExpiring(const TemporalEdge& ed) {
  for (ContinuousEngine* engine : engines_) engine->OnEdgeExpiring(ed);
}

void SharedStreamContext::NotifyRemoved(const TemporalEdge& ed) {
  for (ContinuousEngine* engine : engines_) engine->OnEdgeRemoved(ed);
}

size_t SharedStreamContext::EstimateMemoryBytes() const {
  size_t bytes = g_.EstimateMemoryBytes();
  for (const ContinuousEngine* engine : engines_) {
    bytes += engine->EstimateMemoryBytes();
  }
  return bytes;
}

bool SharedStreamContext::overflowed() const {
  for (const ContinuousEngine* engine : engines_) {
    if (engine->overflowed()) return true;
  }
  return false;
}

void SharedStreamContext::set_deadline(Deadline* deadline) {
  deadline_ = deadline;
  for (ContinuousEngine* engine : engines_) engine->set_deadline(deadline);
}

void SharedStreamContext::set_observability(Observability* obs) {
  obs_ = obs;
  stages_ = obs != nullptr ? &obs->stages() : nullptr;
  trace_ = obs != nullptr ? obs->trace() : nullptr;
}

EngineCounters SharedStreamContext::AggregateCounters() const {
  EngineCounters total;
  for (const ContinuousEngine* engine : engines_) {
    const EngineCounters& c = engine->counters();
    total.occurred += c.occurred;
    total.expired += c.expired;
    total.search_nodes += c.search_nodes;
    total.update_ns += c.update_ns;
    total.search_ns += c.search_ns;
    total.adj_entries_scanned += c.adj_entries_scanned;
    total.adj_entries_matched += c.adj_entries_matched;
  }
  return total;
}

}  // namespace tcsm
