// The stream driver: one loop that turns a chronological source of
// arrivals into Algorithm 1's event list L and delivers it to a
// SharedStreamContext. Edge e with timestamp t yields (e, t, +) and
// (e, t + delta, -). Events are processed in chronological order with
// expirations before arrivals on ties, so an embedding can never use an
// edge that expires exactly when a new edge arrives (Example II.2). The
// context applies each event to the shared graph once and fans it out to
// every attached engine.
//
// The source is an in-memory TemporalDataset (RunStream, below) or a
// `.tel` StreamReader (ReplayStream, io/replay.h); both entry points run
// the same DriveStream loop (core/stream_driver-inl.h), so their match
// streams are byte-identical by construction (DESIGN.md §8).
#ifndef TCSM_CORE_STREAM_DRIVER_H_
#define TCSM_CORE_STREAM_DRIVER_H_

#include <cstdint>
#include <iosfwd>

#include "common/status.h"
#include "core/shared_context.h"
#include "graph/temporal_dataset.h"

namespace tcsm {

class FlightRecorder;  // io/flight_recorder.h
class Observability;

/// Micro-batch cap used when a driver's max_batch knob is 0. Large enough
/// to amortize the per-event fan-out cost, small enough that drivers
/// still check deadlines and overflow flags frequently.
inline constexpr size_t kDefaultMaxBatch = 64;

struct StreamConfig {
  /// Time window delta; edges with ts <= now - delta are expired. 0 =
  /// take the source's window (a `.tel` header's window=D); a source
  /// with neither is an InvalidArgument. Ignored by explicit-expiry
  /// streams, which carry their own schedule.
  Timestamp window = 0;
  /// Per-run wall-clock limit; 0 = unlimited. A run that exceeds it is
  /// reported as not completed ("unsolved" in the paper's terms).
  double time_limit_ms = 0;
  /// Stop the replay after this many arrivals (0 = all). Expirations of
  /// already-arrived edges are still delivered, so the run ends on an
  /// empty window. This is the CLI's --max-events rate control.
  size_t max_arrivals = 0;
  /// Largest micro-batch handed to the context in one
  /// OnEdgeArrivalBatch/OnEdgeExpiryBatch call (consecutive events of one
  /// kind sharing a timestamp; DESIGN.md §9). 0 = default (64); 1 =
  /// unbatched, exactly the historical one-call-per-event behavior.
  /// Explicit-expiry records are never coalesced. The match stream is
  /// identical for every setting; the cap only bounds how long the driver
  /// goes between deadline/overflow checks.
  size_t max_batch = 0;
  /// Observability bundle (obs/observability.h); null = metrics off, the
  /// driver and context then skip every metrics/trace site (DESIGN.md
  /// §11's no-op contract). The driver installs it on the context before
  /// the first event and publishes the run's engine counter deltas into
  /// the registry at the end.
  Observability* obs = nullptr;
  /// Emit one StatsReporter line to `stats_out` every `stats_every`
  /// delivered events (0 = never; requires `obs`). `stats_json` selects
  /// the JSON line form over the text form.
  size_t stats_every = 0;
  bool stats_json = false;
  std::ostream* stats_out = nullptr;
  /// Optional flight recorder (io/flight_recorder.h): every delivered
  /// arrival is recorded before it reaches the context, so a dump taken
  /// after a mid-replay failure still holds the event that triggered it.
  FlightRecorder* recorder = nullptr;
};

struct StreamResult {
  bool completed = true;
  /// Why the run failed (completed == false): a missing window, or a
  /// window or timestamp that could overflow the expiry arithmetic
  /// (ts + window; see kMaxStreamTimestamp), refuses the run before its
  /// first event; a reader's parse error stops it mid-stream
  /// (ReplayStream returns that as its Status). Runs that merely hit the
  /// time limit or overflow an engine keep an OK status.
  Status error = Status::Ok();
  double elapsed_ms = 0;
  /// Summed over all engines attached to the context.
  uint64_t occurred = 0;
  uint64_t expired = 0;
  size_t events = 0;
  /// Peak of the context estimate (shared graph once + per-query state),
  /// observed after every delivery; 0 when nothing was delivered.
  size_t peak_memory_bytes = 0;
  /// Events delivered (result.events) when that peak was reached — the
  /// first delivery boundary at which the estimate took its maximum, so a
  /// spike is attributable to a stream position.
  size_t peak_memory_event_index = 0;
  /// Scan-selectivity totals over this run (see EngineCounters): adjacency
  /// entries visited vs. entries passing all static checks. The gap is the
  /// work the label-partitioned storage avoids.
  uint64_t adj_entries_scanned = 0;
  uint64_t adj_entries_matched = 0;
  /// This run's engine time summed over engines (EngineCounters deltas):
  /// filter + DCS upkeep, and backtracking. Pool workers overlap, so the
  /// sums can exceed elapsed_ms.
  uint64_t update_ns = 0;
  uint64_t search_ns = 0;
  /// Fan-out width of the context that was driven (1 for serial contexts,
  /// the pool width for a ParallelStreamContext) — recorded so bench/CLI
  /// output always states how a measurement was produced.
  size_t num_threads = 1;
  /// Vertex partitions of the data graph (1 for unsharded contexts, S for
  /// a ShardedStreamContext) — recorded for the same reason.
  size_t num_shards = 1;
};

/// Drives an in-memory dataset (no window of its own: config.window must
/// be > 0).
StreamResult RunStream(const TemporalDataset& dataset,
                       const StreamConfig& config,
                       SharedStreamContext* context);

}  // namespace tcsm

#endif  // TCSM_CORE_STREAM_DRIVER_H_
