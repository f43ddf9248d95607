// Periodic stream statistics (--stats-every=N): one text or JSON line
// every N delivered events with events/sec, live window occupancy, and —
// over the tick interval — scan selectivity, the engines' update/search
// milliseconds (EngineCounters deltas) and per-stage latency quantiles
// (DESIGN.md §11).
#ifndef TCSM_OBS_STATS_REPORTER_H_
#define TCSM_OBS_STATS_REPORTER_H_

#include <cstddef>
#include <iosfwd>

#include "common/timer.h"
#include "core/engine.h"
#include "obs/observability.h"

namespace tcsm {

class StatsReporter {
 public:
  /// Disabled (every tick check is one branch) when `obs` is null,
  /// `every_events` is 0, or `out` is null.
  StatsReporter(Observability* obs, size_t every_events, bool json,
                std::ostream* out);

  bool enabled() const {
    return obs_ != nullptr && every_ > 0 && out_ != nullptr;
  }

  /// True when the event total just crossed a tick boundary; a batch
  /// that jumps several boundaries still yields exactly one tick.
  bool Due(size_t events_total) const {
    return enabled() && events_total / every_ != last_events_ / every_;
  }

  /// Emit one stats line; `agg` is the contexts' aggregated engine
  /// counters at this point of the stream. Also republishes them into
  /// the registry's engine.* gauges.
  void Tick(size_t events_total, size_t live_edges,
            const EngineCounters& agg);

 private:
  Observability* const obs_;
  const size_t every_;
  const bool json_;
  std::ostream* const out_;
  StopWatch watch_;
  double last_ms_ = 0.0;
  size_t last_events_ = 0;
  EngineCounters last_agg_;
  MetricsSnapshot last_snap_;
};

}  // namespace tcsm

#endif  // TCSM_OBS_STATS_REPORTER_H_
