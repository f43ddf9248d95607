// The one stream driver loop (DESIGN.md §8), shared by RunStream
// (core/stream_driver.cpp, over a TemporalDataset) and ReplayStream
// (io/replay.cpp, over a StreamReader). Only those two translation units
// include this file; each instantiates DriveStream with its own source,
// so the per-record pull inlines into the loop. A Source provides:
//
//   Status Next(StreamRecord* record, bool* done);
//       the next record, arrival ids already assigned; on a clean end of
//       stream sets *done and returns Ok
//   std::string name() const;       names the source in diagnostics
//   Timestamp window() const;       the source's own window; 0 = none
//   bool explicit_expiry() const;   true when it records its expirations
#ifndef TCSM_CORE_STREAM_DRIVER_INL_H_
#define TCSM_CORE_STREAM_DRIVER_INL_H_

#include <deque>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/memory_meter.h"
#include "common/timer.h"
#include "core/stream_driver.h"
#include "io/flight_recorder.h"
#include "io/tel_format.h"
#include "obs/observability.h"
#include "obs/stage_timer.h"
#include "obs/stats_reporter.h"

namespace tcsm {

/// A run refused before its first event, or stopped by a read error.
inline StreamResult FailedRun(Status why) {
  StreamResult result;
  result.completed = false;
  result.error = std::move(why);
  return result;
}

/// Delivers `source`'s events to `context` under `config`. Failures
/// surface as StreamResult::error, never as an abort.
template <typename Source>
StreamResult DriveStream(Source& source, const StreamConfig& config,
                         SharedStreamContext* context) {
  const bool explicit_mode = source.explicit_expiry();
  const Timestamp window =
      config.window > 0 ? config.window : source.window();
  if (!explicit_mode && window <= 0) {
    return FailedRun(Status::InvalidArgument(
        source.name() +
        ": no expiry window (pass one explicitly or record window= in the "
        "header)"));
  }
  if (!explicit_mode && window > kMaxStreamTimestamp) {
    // ts + window must not overflow, however the window reached us.
    // (Explicit-expiry streams never form that sum.)
    return FailedRun(
        Status::InvalidArgument("window too large (must stay below 2^61)"));
  }

  StreamResult result;
  Deadline deadline(config.time_limit_ms);
  context->set_deadline(config.time_limit_ms > 0 ? &deadline : nullptr);

  // Observability: install the bundle on the context and cache the
  // handles the driver's own sites use. All of `stages`/`trace` stay null
  // when metrics are off, so each site below is one pointer test.
  context->set_observability(config.obs);
  const StageMetrics* const stages =
      config.obs != nullptr ? &config.obs->stages() : nullptr;
  TraceWriter* const trace =
      config.obs != nullptr ? config.obs->trace() : nullptr;
  StatsReporter reporter(config.obs, config.stats_every, config.stats_json,
                         config.stats_out);

  const size_t max_batch =
      config.max_batch == 0 ? kDefaultMaxBatch : config.max_batch;

  PeakMeter peak;
  StopWatch watch;
  const EngineCounters base = context->AggregateCounters();

  // FIFO of delivered-but-not-expired edges: the O(window) live state.
  std::deque<TemporalEdge> live;
  StreamRecord pending;
  bool has_pending = false;
  bool stopped = false;    // no further reads (end of source or arrival cap)
  bool truncated = false;  // stopped by the cap, not by the source ending
  size_t arrivals = 0;

  const auto pull = [&]() -> Status {
    if (has_pending || stopped) return Status::Ok();
    bool done = false;
    const Status s = source.Next(&pending, &done);
    if (!s.ok()) return s;
    if (done) {
      stopped = true;
    } else {
      has_pending = true;
    }
    return Status::Ok();
  };

  // Scratch for coalesced deliveries (DESIGN.md §9): consecutive
  // same-timestamp events of one kind handed to the context as a batch.
  std::vector<TemporalEdge> batch;

  Status s = pull();
  while (s.ok()) {
    if (config.max_arrivals > 0 && arrivals >= config.max_arrivals &&
        !stopped) {
      // Rate control: stop consuming the source; live edges still expire.
      has_pending = false;
      stopped = true;
      truncated = true;
    }
    const bool have_arrival =
        has_pending && pending.kind == StreamRecord::Kind::kArrival;
    bool do_expire;
    if (explicit_mode) {
      // The source carries its own schedule; a truncated run (cap hit)
      // drains the live FIFO so every delivered arrival still expires.
      do_expire =
          (has_pending && pending.kind == StreamRecord::Kind::kExpiry) ||
          (stopped && truncated && !live.empty());
    } else {
      // Expiration time of the oldest live edge is its timestamp +
      // window; expirations go first on ties.
      do_expire = !live.empty() &&
                  (!have_arrival ||
                   live.front().ts + window <= pending.edge.ts);
    }
    if (!do_expire && !have_arrival) break;  // drained: the run is complete
    if (deadline.ExpiredNow() || context->overflowed()) {
      result.completed = false;
      break;
    }
    if (do_expire) {
      TCSM_CHECK(!live.empty());
      batch.clear();
      batch.push_back(live.front());
      live.pop_front();
      if (has_pending && pending.kind == StreamRecord::Kind::kExpiry) {
        // One explicit record = one expiry; never coalesced.
        has_pending = false;
      } else if (!explicit_mode) {
        // Derived mode: same arrival timestamp means same expiry time, so
        // the front run of equal-ts live edges expires together. An
        // arrival batch never needs an expiration between its members
        // (window > 0), so batching by equal ts never reorders events.
        const Timestamp t = batch.front().ts;
        while (batch.size() < max_batch && !live.empty() &&
               live.front().ts == t) {
          batch.push_back(live.front());
          live.pop_front();
        }
      }
      {
        const ScopedStage span(
            stages != nullptr ? stages->expiry_batch_ns : nullptr, trace,
            "expiry_batch", "stream", "events", batch.size());
        context->OnEdgeExpiryBatch(batch.data(), batch.size());
      }
      if (stages != nullptr) {
        stages->expirations->Add(batch.size());
        stages->expiry_batches->Add(1);
      }
    } else {
      batch.clear();
      batch.push_back(pending.edge);
      has_pending = false;
      ++arrivals;
      // Pull ahead to coalesce consecutive same-timestamp arrivals. Stops
      // at the arrival cap, a kind or timestamp change, or a read error —
      // in which case the batch accumulated so far is delivered before
      // the error surfaces.
      while (batch.size() < max_batch &&
             (config.max_arrivals == 0 || arrivals < config.max_arrivals)) {
        s = pull();
        if (!s.ok() || !has_pending ||
            pending.kind != StreamRecord::Kind::kArrival ||
            pending.edge.ts != batch.front().ts) {
          break;
        }
        batch.push_back(pending.edge);
        has_pending = false;
        ++arrivals;
      }
      if (config.recorder != nullptr) {
        for (const TemporalEdge& e : batch) config.recorder->Record(e);
      }
      {
        const ScopedStage span(
            stages != nullptr ? stages->arrival_batch_ns : nullptr, trace,
            "arrival_batch", "stream", "events", batch.size());
        context->OnEdgeArrivalBatch(batch.data(), batch.size());
      }
      if (stages != nullptr) {
        stages->arrivals->Add(batch.size());
        stages->arrival_batches->Add(1);
      }
      live.insert(live.end(), batch.begin(), batch.end());
      if (!s.ok()) break;
    }
    result.events += batch.size();
    if (stages != nullptr) {
      stages->live_edges->Set(static_cast<int64_t>(live.size()));
    }
    // The estimate is arithmetic over element counts (DESIGN.md §5), so
    // the peak is observed after every delivery and exact at delivery
    // boundaries.
    peak.Observe(context->EstimateMemoryBytes(), result.events);
    if (reporter.Due(result.events)) {
      reporter.Tick(result.events, live.size(), context->AggregateCounters());
    }
    s = pull();
  }
  context->set_deadline(nullptr);
  if (!s.ok()) return FailedRun(s);

  result.elapsed_ms = watch.ElapsedMs();
  // This run's engine work: the counter deltas since its first event.
  EngineCounters run = context->AggregateCounters();
  run.occurred -= base.occurred;
  run.expired -= base.expired;
  run.search_nodes -= base.search_nodes;
  run.update_ns -= base.update_ns;
  run.search_ns -= base.search_ns;
  run.adj_entries_scanned -= base.adj_entries_scanned;
  run.adj_entries_matched -= base.adj_entries_matched;
  result.occurred = run.occurred;
  result.expired = run.expired;
  result.adj_entries_scanned = run.adj_entries_scanned;
  result.adj_entries_matched = run.adj_entries_matched;
  result.update_ns = run.update_ns;
  result.search_ns = run.search_ns;
  result.peak_memory_bytes = peak.peak_bytes();
  result.peak_memory_event_index = peak.peak_event_index();
  result.num_threads = context->num_threads();
  result.num_shards = context->num_shards();
  if (stages != nullptr) {
    // Publish the deltas so a registry snapshot, --json, and BENCH JSON
    // all read one source of truth.
    config.obs->PublishEngineCounters(run);
    stages->peak_bytes->Set(static_cast<int64_t>(result.peak_memory_bytes));
    stages->peak_event_index->Set(
        static_cast<int64_t>(result.peak_memory_event_index));
    stages->live_edges->Set(static_cast<int64_t>(live.size()));
  }
  return result;
}

}  // namespace tcsm

#endif  // TCSM_CORE_STREAM_DRIVER_INL_H_
