#include "core/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/memory_meter.h"

// Deferred emission for absence predicates (DESIGN.md §12). The state
// machine below is deliberately tiny and strictly sequential per engine, so
// serial, thread-parallel, and sharded execution — all of which notify each
// engine with the same per-event sequence — stay byte-identical. The
// snapshot checker in tests/testlib/stream_checker.h mirrors these
// semantics independently; keep the two in sync through the spec, not by
// sharing code.

namespace tcsm {

void ContinuousEngine::InitAbsence(const QueryGraph& query) {
  if (query.absences().empty()) return;
  absence_ = std::make_unique<AbsenceState>();
  absence_->directed = query.directed();
  absence_->embedding_bytes = query.NumVertices() * sizeof(VertexId) +
                              query.NumEdges() * sizeof(EdgeId);
  absence_->predicates.assign(query.absences().begin(),
                              query.absences().end());
  for (const AbsencePredicate& p : absence_->predicates) {
    absence_->max_delta = std::max(absence_->max_delta, p.delta);
  }
}

size_t ContinuousEngine::AbsenceMemoryBytes() const {
  if (absence_ == nullptr) return 0;
  const AbsenceState& st = *absence_;
  return st.pending.size() * (sizeof(AbsencePending) + st.embedding_bytes) +
         HashBytes<decltype(st.suppressed)>(st.suppressed.size()) +
         st.suppressed.size() * st.embedding_bytes +
         st.same_ts.size() * sizeof(TemporalEdge);
}

/// True iff `ed` violates some absence predicate for an embedding whose
/// completing edge arrived at trigger_ts. The caller guarantees
/// ed.ts >= trigger_ts; the embedding's own edges never violate.
bool ContinuousEngine::AbsenceViolates(const Embedding& emb,
                                       Timestamp trigger_ts,
                                       const TemporalEdge& ed) const {
  const AbsenceState& st = *absence_;
  for (const AbsencePredicate& p : st.predicates) {
    if (ed.label != p.label) continue;
    if (ed.ts > trigger_ts + p.delta) continue;
    const VertexId iu = emb.vertices[p.u];
    const VertexId iv = emb.vertices[p.v];
    const bool hit = st.directed
                         ? (ed.src == iu && ed.dst == iv)
                         : ((ed.src == iu && ed.dst == iv) ||
                            (ed.src == iv && ed.dst == iu));
    if (!hit) continue;
    if (std::find(emb.edges.begin(), emb.edges.end(), ed.id) !=
        emb.edges.end()) {
      continue;
    }
    return true;
  }
  return false;
}

void ContinuousEngine::AbsenceArrivalSlow(const TemporalEdge& ed) {
  AbsenceState& st = *absence_;
  if (ed.ts != st.cur_ts) {
    st.same_ts.clear();
    st.cur_ts = ed.ts;
  }
  // Resolve: a pending completion whose deadline lies strictly before this
  // arrival can no longer be violated — every future arrival has ts >=
  // ed.ts. Deadlines are non-decreasing along the deque (FIFO flush).
  while (!st.pending.empty() && st.pending.front().deadline < ed.ts) {
    Emit(st.pending.front().emb, MatchKind::kOccurred, 1);
    st.pending.pop_front();
  }
  // Kill: this arrival may land inside a still-open absence window. The
  // killed embedding is remembered so its eventual expired report is
  // swallowed as well.
  for (auto it = st.pending.begin(); it != st.pending.end();) {
    if (AbsenceViolates(it->emb, it->trigger_ts, ed)) {
      st.suppressed.insert(std::move(it->emb));
      it = st.pending.erase(it);
    } else {
      ++it;
    }
  }
  // Remember this arrival for birth checks of completions at the same
  // instant that are reported after it.
  for (const AbsencePredicate& p : st.predicates) {
    if (p.label == ed.label) {
      st.same_ts.push_back(ed);
      break;
    }
  }
}

void ContinuousEngine::AbsenceReport(const Embedding& embedding,
                                     MatchKind kind, uint64_t multiplicity) {
  // Engines force per-embedding expansion whenever absence is active:
  // suppression depends on the concrete edge images.
  TCSM_CHECK(multiplicity == 1);
  AbsenceState& st = *absence_;
  if (kind == MatchKind::kOccurred) {
    // The completion is triggered by the arrival currently being
    // processed, so the trigger time is the last arrival timestamp.
    const Timestamp t = st.cur_ts;
    for (const TemporalEdge& b : st.same_ts) {
      if (AbsenceViolates(embedding, t, b)) {
        st.suppressed.insert(embedding);
        return;
      }
    }
    st.pending.push_back(AbsencePending{embedding, t, t + st.max_delta});
    return;
  }
  // Expired report: a suppressed embedding disappears silently; a still
  // pending one resolves now — its edges are leaving the window, so no
  // further arrival can both violate it and overlap it.
  const auto sit = st.suppressed.find(embedding);
  if (sit != st.suppressed.end()) {
    st.suppressed.erase(sit);
    return;
  }
  for (auto it = st.pending.begin(); it != st.pending.end(); ++it) {
    if (it->emb == embedding) {
      Emit(embedding, MatchKind::kOccurred, 1);
      st.pending.erase(it);
      break;
    }
  }
  Emit(embedding, MatchKind::kExpired, 1);
}

}  // namespace tcsm
