#include "obs/stats_reporter.h"

#include <ostream>

#include "common/numbers.h"

namespace tcsm {

StatsReporter::StatsReporter(Observability* obs, size_t every_events,
                             bool json, std::ostream* out)
    : obs_(obs), every_(every_events), json_(json), out_(out) {}

void StatsReporter::Tick(size_t events_total, size_t live_edges,
                         const EngineCounters& agg) {
  if (!enabled()) return;
  obs_->PublishEngineCounters(agg);

  const double now_ms = watch_.ElapsedMs();
  const double interval_ms = now_ms - last_ms_;
  const double events_per_sec =
      interval_ms > 0.0
          ? static_cast<double>(events_total - last_events_) * 1000.0 /
                interval_ms
          : 0.0;
  const uint64_t scanned =
      agg.adj_entries_scanned - last_agg_.adj_entries_scanned;
  const uint64_t matched =
      agg.adj_entries_matched - last_agg_.adj_entries_matched;
  const double selectivity =
      scanned > 0 ? static_cast<double>(matched) / scanned : 0.0;
  const double update_ms =
      static_cast<double>(agg.update_ns - last_agg_.update_ns) / 1e6;
  const double search_ms =
      static_cast<double>(agg.search_ns - last_agg_.search_ns) / 1e6;

  // Per-stage quantiles over the interval: the end-of-run summary rows
  // of the snapshot delta, so both reports name stages alike.
  MetricsSnapshot snap = obs_->Snapshot();
  MetricsSnapshot interval;
  for (const auto& [name, hist] : snap.histograms) {
    const HistogramSnapshot* prev = last_snap_.FindHistogram(name);
    interval.histograms.emplace_back(
        name, prev != nullptr ? hist.DeltaSince(*prev) : hist);
  }
  const std::vector<StageSummaryRow> stages = SummarizeStages(interval);
  std::ostream& out = *out_;
  if (json_) {
    out << "{\"type\":\"stats\",\"events\":" << events_total
        << ",\"events_per_sec\":" << FormatDouble(events_per_sec, 1)
        << ",\"live_edges\":" << live_edges << ",\"occurred\":" << agg.occurred
        << ",\"expired\":" << agg.expired
        << ",\"scan_selectivity\":" << FormatDouble(selectivity, 3)
        << ",\"update_ms\":" << FormatDouble(update_ms, 3)
        << ",\"search_ms\":" << FormatDouble(search_ms, 3)
        << ",\"stages\":" << StagesJson(stages) << "}\n";
  } else {
    out << "[stats] events=" << events_total
        << " ev_per_s=" << FormatDouble(events_per_sec, 1)
        << " live=" << live_edges << " occurred=" << agg.occurred
        << " expired=" << agg.expired
        << " scan_sel=" << FormatDouble(selectivity, 3)
        << " update_ms=" << FormatDouble(update_ms, 3)
        << " search_ms=" << FormatDouble(search_ms, 3);
    for (const StageSummaryRow& r : stages) {
      out << " " << r.stage << "_p50_us=" << FormatDouble(r.p50_us, 3) << " "
          << r.stage << "_p99_us=" << FormatDouble(r.p99_us, 3);
    }
    out << "\n";
  }
  out.flush();

  last_ms_ = now_ms;
  last_events_ = events_total;
  last_agg_ = agg;
  last_snap_ = std::move(snap);
}

}  // namespace tcsm
