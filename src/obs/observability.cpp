#include "obs/observability.h"

#include <iterator>
#include <string_view>
#include <utility>

#include "common/numbers.h"

namespace tcsm {

/// The engine.* gauges and the EngineCounters field each republishes.
constexpr std::pair<const char*, uint64_t EngineCounters::*> kEngineGauges[] = {
    {"engine.occurred", &EngineCounters::occurred},
    {"engine.expired", &EngineCounters::expired},
    {"engine.search_nodes", &EngineCounters::search_nodes},
    {"engine.adj_scanned", &EngineCounters::adj_entries_scanned},
    {"engine.adj_matched", &EngineCounters::adj_entries_matched},
    {"engine.update_ns", &EngineCounters::update_ns},
    {"engine.search_ns", &EngineCounters::search_ns},
};

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
  for (const auto& gauge : kEngineGauges) {
    engine_gauges_.push_back(registry_.AddGauge(gauge.first));
  }

  const std::vector<uint64_t>& bounds = LatencyBoundsNs();
  stages_.parse_ns = registry_.AddHistogram("stage.parse_ns", bounds);
  stages_.arrival_batch_ns =
      registry_.AddHistogram("stage.arrival_batch_ns", bounds);
  stages_.expiry_batch_ns =
      registry_.AddHistogram("stage.expiry_batch_ns", bounds);
  stages_.pipeline_step_ns =
      registry_.AddHistogram("stage.pipeline_step_ns", bounds);
  stages_.sink_drain_ns = registry_.AddHistogram("stage.sink_drain_ns", bounds);

  registry_.Freeze();
}

void Observability::EnableTrace() {
  if (trace_ == nullptr) trace_ = std::make_unique<TraceWriter>();
}

void Observability::PublishEngineCounters(const EngineCounters& agg) {
  for (size_t i = 0; i < std::size(kEngineGauges); ++i) {
    engine_gauges_[i]->Set(static_cast<int64_t>(agg.*kEngineGauges[i].second));
  }
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

std::string StagesJson(const std::vector<StageSummaryRow>& rows) {
  std::string json = "{";
  for (const StageSummaryRow& r : rows) {
    json += (json.size() == 1 ? "\"" : ",\"") + r.stage +
            "\":{\"count\":" + std::to_string(r.count) +
            ",\"p50_us\":" + FormatDouble(r.p50_us, 3) +
            ",\"p99_us\":" + FormatDouble(r.p99_us, 3) +
            ",\"total_ms\":" + FormatDouble(r.total_ms, 3) + "}";
  }
  return json + "}";
}

}  // namespace tcsm
