// The Observability bundle: one MetricsRegistry carrying the whole
// streaming metric taxonomy, the StageMetrics handle set handed to the
// driver-thread seams, and an optional TraceWriter (DESIGN.md §11).
//
// Metric names (all registered up front, registry frozen in the ctor):
//   counters    stream.arrivals, stream.expirations,
//               stream.arrival_batches, stream.expiry_batches,
//               shard.summary_publishes, io.ingest_records,
//               io.ingest_bytes
//   gauges      stream.live_edges, stream.peak_bytes,
//               stream.peak_event_index, engine.occurred, engine.expired,
//               engine.search_nodes, engine.adj_scanned, engine.adj_matched,
//               engine.update_ns, engine.search_ns
//   histograms  stage.parse_ns, stage.arrival_batch_ns,
//               stage.expiry_batch_ns, stage.pipeline_step_ns,
//               stage.sink_drain_ns
//
// io.ingest_records / io.ingest_bytes count records returned by and bytes
// consumed from the StreamReader feeding a replay; stage.parse_ns times
// record parsing (per record for text framing, per block load for binary).
//
// Engines never touch the registry. The engine.* gauges are republished
// from the aggregated EngineCounters (by the driver at end-of-run and by
// every StatsReporter tick), so --json, BENCH JSON, the stats line, and a
// registry snapshot all read the same source of truth — engine.update_ns
// and engine.search_ns included: the two phases of Algorithm 1 (filter +
// DCS upkeep, backtracking) are timed once, into EngineCounters.
#ifndef TCSM_OBS_OBSERVABILITY_H_
#define TCSM_OBS_OBSERVABILITY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tcsm {

class Observability {
 public:
  Observability();
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  const StageMetrics& stages() const { return stages_; }

  /// Null until EnableTrace(); instrumented seams treat null as "no
  /// spans". Tracing is opt-in because Emit() locks and allocates.
  TraceWriter* trace() const { return trace_.get(); }
  void EnableTrace();

  /// Republish the aggregated engine counters as engine.* gauges.
  void PublishEngineCounters(const EngineCounters& agg);

  MetricsSnapshot Snapshot() const { return registry_.Snapshot(); }
  MetricsRegistry& registry() { return registry_; }

 private:
  MetricsRegistry registry_;
  StageMetrics stages_;
  std::vector<Gauge*> engine_gauges_;  // one per kEngineGauges entry
  std::unique_ptr<TraceWriter> trace_;
};

/// One row of a per-stage summary: the end-of-run table and JSON, and
/// (over a snapshot delta) each StatsReporter tick.
struct StageSummaryRow {
  std::string stage;  // histogram name minus the "stage."/"_ns" affixes
  uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double total_ms = 0.0;
};

/// Rows for every stage histogram with at least one observation.
std::vector<StageSummaryRow> SummarizeStages(const MetricsSnapshot& snap);

/// The rows as the JSON object of `replay --json` and the JSON stats
/// ticks: {"<stage>":{"count":..,"p50_us":..,"p99_us":..,"total_ms":..}}.
std::string StagesJson(const std::vector<StageSummaryRow>& rows);

}  // namespace tcsm

#endif  // TCSM_OBS_OBSERVABILITY_H_
