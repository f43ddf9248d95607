// Test harness that replays a dataset event by event through an engine and
// checks every reported occurred/expired embedding against a brute-force
// snapshot oracle: after each event the set of time-constrained embeddings
// of the live graph is enumerated from scratch and diffed against the
// previous snapshot.
#ifndef TCSM_TESTS_TESTLIB_STREAM_CHECKER_H_
#define TCSM_TESTS_TESTLIB_STREAM_CHECKER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/engine.h"
#include "core/shared_context.h"
#include "graph/temporal_dataset.h"
#include "graph/temporal_graph.h"
#include "query/query_graph.h"
#include "testing/oracle.h"

namespace tcsm::testlib {

using EmbeddingSet = std::unordered_set<Embedding, EmbeddingHash>;

inline EmbeddingSet Snapshot(const TemporalGraph& g, const QueryGraph& q) {
  std::vector<Embedding> embs;
  EnumerateEmbeddings(g, q, /*check_order=*/true, &embs);
  EmbeddingSet set(embs.begin(), embs.end());
  EXPECT_EQ(set.size(), embs.size()) << "oracle produced duplicates";
  return set;
}

/// Replays `dataset` with `window` through `context` (with `engine`
/// attached to it), asserting that the engine's per-event occurred/expired
/// embedding sets equal the oracle's snapshot diffs. Returns the total
/// number of occurred matches.
inline uint64_t CheckEngineAgainstOracle(const TemporalDataset& dataset,
                                         const QueryGraph& query,
                                         Timestamp window,
                                         SharedStreamContext* context,
                                         ContinuousEngine* engine) {
  CollectingSink sink;
  engine->set_sink(&sink);

  TemporalGraph mirror(dataset.directed);
  mirror.EnsureVertices(dataset.vertex_labels.size());
  for (size_t v = 0; v < dataset.vertex_labels.size(); ++v) {
    mirror.SetVertexLabel(static_cast<VertexId>(v),
                          dataset.vertex_labels[v]);
  }
  EmbeddingSet current;
  uint64_t total_occurred = 0;

  // Mirrored deferred-emission state for absence predicates. This is an
  // independent transcription of the specified semantics (DESIGN.md §12),
  // deliberately NOT sharing code with src/core/engine.cpp so the
  // differential diff stays meaningful: a structural completion at trigger
  // time T goes pending; a matching non-own data edge inside [T, T+delta]
  // kills it; a pending completion is emitted at the first arrival past
  // its deadline (FIFO) or, failing that, immediately before its own
  // expired report.
  struct MirrorPending {
    Embedding emb;
    Timestamp trigger_ts;
    Timestamp deadline;
  };
  const bool absence = !query.absences().empty();
  Timestamp max_delta = 0;
  for (const AbsencePredicate& p : query.absences()) {
    max_delta = std::max(max_delta, p.delta);
  }
  Timestamp abs_ts = kMinusInfinity;
  std::vector<TemporalEdge> abs_same_ts;  // same-instant earlier arrivals
  std::vector<MirrorPending> abs_pending;
  EmbeddingSet abs_suppressed;
  const auto violates = [&query](const Embedding& emb, Timestamp trigger_ts,
                                 const TemporalEdge& ed) {
    for (const AbsencePredicate& p : query.absences()) {
      if (ed.label != p.label || ed.ts > trigger_ts + p.delta) continue;
      const VertexId iu = emb.vertices[p.u];
      const VertexId iv = emb.vertices[p.v];
      const bool hit = query.directed()
                           ? (ed.src == iu && ed.dst == iv)
                           : ((ed.src == iu && ed.dst == iv) ||
                              (ed.src == iv && ed.dst == iu));
      if (!hit) continue;
      if (std::find(emb.edges.begin(), emb.edges.end(), ed.id) !=
          emb.edges.end()) {
        continue;  // an embedding's own edges never violate it
      }
      return true;
    }
    return false;
  };

  size_t arr = 0;
  size_t exp = 0;
  const size_t n = dataset.edges.size();
  size_t reported = 0;  // consumed prefix of sink.matches()
  // This engine's own first divergence stops the replay. The test-wide
  // HasFailure() would not do: in a test that checks several engines in
  // turn, an earlier engine's failure would stop every later one at its
  // first event and hide its faults.
  bool diverged = false;
  while (arr < n || exp < arr) {
    const bool do_expire =
        exp < arr && (arr >= n || dataset.edges[exp].ts + window <=
                                      dataset.edges[arr].ts);
    EmbeddingSet expect_occurred;
    EmbeddingSet expect_expired;
    if (do_expire) {
      const TemporalEdge& e = dataset.edges[exp];
      context->OnEdgeExpiry(e);
      mirror.RemoveEdge(e.id);
      const EmbeddingSet next = Snapshot(mirror, query);
      for (const Embedding& m : current) {
        if (next.count(m) != 0) continue;
        if (!absence) {
          expect_expired.insert(m);
          continue;
        }
        if (abs_suppressed.erase(m) > 0) continue;  // swallowed entirely
        const auto it = std::find_if(
            abs_pending.begin(), abs_pending.end(),
            [&m](const MirrorPending& p) { return p.emb == m; });
        if (it != abs_pending.end()) {
          // Dies with its absence window still open: resolves now, the
          // occurred report immediately preceding the expired one.
          abs_pending.erase(it);
          expect_occurred.insert(m);
        }
        expect_expired.insert(m);
      }
      current = next;
      ++exp;
    } else {
      const TemporalEdge& e = dataset.edges[arr];
      if (absence) {
        if (e.ts != abs_ts) {
          abs_same_ts.clear();
          abs_ts = e.ts;
        }
        // Deadline strictly passed: no future arrival can violate.
        while (!abs_pending.empty() && abs_pending.front().deadline < e.ts) {
          expect_occurred.insert(abs_pending.front().emb);
          abs_pending.erase(abs_pending.begin());
        }
        for (auto it = abs_pending.begin(); it != abs_pending.end();) {
          if (violates(it->emb, it->trigger_ts, e)) {
            abs_suppressed.insert(it->emb);
            it = abs_pending.erase(it);
          } else {
            ++it;
          }
        }
        for (const AbsencePredicate& p : query.absences()) {
          if (p.label == e.label) {
            abs_same_ts.push_back(e);
            break;
          }
        }
      }
      context->OnEdgeArrival(e);
      mirror.InsertEdge(e.src, e.dst, e.ts, e.label);
      const EmbeddingSet next = Snapshot(mirror, query);
      for (const Embedding& m : next) {
        if (current.count(m) != 0) continue;
        if (!absence) {
          expect_occurred.insert(m);
          continue;
        }
        // Birth check against same-instant earlier arrivals, then defer.
        bool dead = false;
        for (const TemporalEdge& b : abs_same_ts) {
          if (violates(m, e.ts, b)) {
            dead = true;
            break;
          }
        }
        if (dead) {
          abs_suppressed.insert(m);
        } else {
          abs_pending.push_back(MirrorPending{m, e.ts, e.ts + max_delta});
        }
      }
      current = next;
      ++arr;
    }
    // Drain this event's reports.
    EmbeddingSet got_occurred;
    EmbeddingSet got_expired;
    for (; reported < sink.matches().size(); ++reported) {
      const auto& [emb, kind] = sink.matches()[reported];
      const bool inserted = (kind == MatchKind::kOccurred ? got_occurred
                                                          : got_expired)
                                .insert(emb)
                                .second;
      EXPECT_TRUE(inserted) << "duplicate report from " << engine->name();
      diverged = diverged || !inserted;
    }
    EXPECT_EQ(got_occurred, expect_occurred)
        << engine->name() << ": wrong occurred set at event "
        << (arr + exp - 1);
    EXPECT_EQ(got_expired, expect_expired)
        << engine->name() << ": wrong expired set at event "
        << (arr + exp - 1);
    total_occurred += expect_occurred.size();
    diverged = diverged || got_occurred != expect_occurred ||
               got_expired != expect_expired;
    if (diverged) break;
  }
  // Both stream drivers drain every expiration at end of stream, so every
  // pending completion must have resolved through its own expiry.
  if (absence && !diverged) {
    EXPECT_TRUE(abs_pending.empty())
        << engine->name() << ": " << abs_pending.size()
        << " absence-pending completions never resolved";
  }
  engine->set_sink(nullptr);
  return total_occurred;
}

/// Convenience overload for the common one-query rig.
template <typename EngineT>
uint64_t CheckEngineAgainstOracle(const TemporalDataset& dataset,
                                  const QueryGraph& query, Timestamp window,
                                  SingleQueryContext<EngineT>* run) {
  return CheckEngineAgainstOracle(dataset, query, window, run,
                                  &run->engine());
}

}  // namespace tcsm::testlib

#endif  // TCSM_TESTS_TESTLIB_STREAM_CHECKER_H_
