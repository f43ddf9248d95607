#include "core/stream_driver.h"

#include <algorithm>
#include <string>

#include "core/stream_driver-inl.h"

namespace tcsm {

namespace {

/// Serves a dataset's first `arrivals` edges, ids as stored. A dataset
/// has no window of its own.
class DatasetSource {
 public:
  DatasetSource(const TemporalDataset& dataset, size_t arrivals)
      : dataset_(dataset), arrivals_(arrivals) {}

  Status Next(StreamRecord* record, bool* done) {
    if (next_ == arrivals_) {
      *done = true;
    } else {
      record->kind = StreamRecord::Kind::kArrival;
      record->edge = dataset_.edges[next_++];
    }
    return Status::Ok();
  }
  std::string name() const {
    return dataset_.name.empty() ? "<dataset>" : dataset_.name;
  }
  Timestamp window() const { return 0; }
  bool explicit_expiry() const { return false; }

 private:
  const TemporalDataset& dataset_;
  const size_t arrivals_;
  size_t next_ = 0;
};

}  // namespace

StreamResult RunStream(const TemporalDataset& dataset,
                       const StreamConfig& config,
                       SharedStreamContext* context) {
  const size_t n = dataset.edges.size();
  const size_t arrivals =
      config.max_arrivals == 0 ? n : std::min(n, config.max_arrivals);
  // The .tel parser caps the timestamps it accepts, but programmatically
  // built and synthetic datasets reach the driver unparsed — refuse
  // magnitudes where ts + window could overflow instead of computing
  // undefined behavior. Timestamps are normalized ascending, so checking
  // the last arrival suffices.
  if (arrivals > 0 && dataset.edges[arrivals - 1].ts > kMaxStreamTimestamp) {
    return FailedRun(Status::InvalidArgument(
        "stream timestamp exceeds kMaxStreamTimestamp; ts + window could "
        "overflow"));
  }
  DatasetSource source(dataset, arrivals);
  return DriveStream(source, config, context);
}

}  // namespace tcsm
