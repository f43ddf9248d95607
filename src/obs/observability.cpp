#include "obs/observability.h"

#include <string_view>

namespace tcsm {

Observability::Observability() {
  stages_.arrivals = registry_.AddCounter("stream.arrivals");
  stages_.expirations = registry_.AddCounter("stream.expirations");
  stages_.arrival_batches = registry_.AddCounter("stream.arrival_batches");
  stages_.expiry_batches = registry_.AddCounter("stream.expiry_batches");
  stages_.summary_publishes = registry_.AddCounter("shard.summary_publishes");
  stages_.ingest_records = registry_.AddCounter("io.ingest_records");
  stages_.ingest_bytes = registry_.AddCounter("io.ingest_bytes");

  stages_.live_edges = registry_.AddGauge("stream.live_edges");
  stages_.peak_bytes = registry_.AddGauge("stream.peak_bytes");
  stages_.peak_event_index = registry_.AddGauge("stream.peak_event_index");
  engine_occurred_ = registry_.AddGauge("engine.occurred");
  engine_expired_ = registry_.AddGauge("engine.expired");
  engine_search_nodes_ = registry_.AddGauge("engine.search_nodes");
  engine_adj_scanned_ = registry_.AddGauge("engine.adj_scanned");
  engine_adj_matched_ = registry_.AddGauge("engine.adj_matched");

  const std::vector<uint64_t>& bounds = LatencyBoundsNs();
  stages_.parse_ns = registry_.AddHistogram("stage.parse_ns", bounds);
  stages_.arrival_batch_ns =
      registry_.AddHistogram("stage.arrival_batch_ns", bounds);
  stages_.expiry_batch_ns =
      registry_.AddHistogram("stage.expiry_batch_ns", bounds);
  stages_.pipeline_step_ns =
      registry_.AddHistogram("stage.pipeline_step_ns", bounds);
  stages_.sink_drain_ns = registry_.AddHistogram("stage.sink_drain_ns", bounds);
  stages_.engine_update_ns =
      registry_.AddHistogram("stage.engine_update_ns", bounds);
  stages_.engine_search_ns =
      registry_.AddHistogram("stage.engine_search_ns", bounds);

  registry_.Freeze();
}

void Observability::EnableTrace() {
  if (trace_ == nullptr) trace_ = std::make_unique<TraceWriter>();
}

void Observability::PublishEngineCounters(const EngineCounters& agg) {
  engine_occurred_->Set(static_cast<int64_t>(agg.occurred));
  engine_expired_->Set(static_cast<int64_t>(agg.expired));
  engine_search_nodes_->Set(static_cast<int64_t>(agg.search_nodes));
  engine_adj_scanned_->Set(static_cast<int64_t>(agg.adj_entries_scanned));
  engine_adj_matched_->Set(static_cast<int64_t>(agg.adj_entries_matched));
}

std::vector<StageSummaryRow> SummarizeStages(const MetricsSnapshot& snap) {
  std::vector<StageSummaryRow> rows;
  for (const auto& [name, hist] : snap.histograms) {
    if (hist.count == 0) continue;
    StageSummaryRow row;
    std::string_view stage = name;
    if (stage.substr(0, 6) == "stage.") stage.remove_prefix(6);
    if (stage.size() > 3 && stage.substr(stage.size() - 3) == "_ns") {
      stage.remove_suffix(3);
    }
    row.stage = std::string(stage);
    row.count = hist.count;
    row.p50_us = hist.Quantile(0.50) / 1000.0;
    row.p99_us = hist.Quantile(0.99) / 1000.0;
    row.total_ms = static_cast<double>(hist.sum) / 1e6;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace tcsm
