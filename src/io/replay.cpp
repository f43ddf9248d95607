#include "io/replay.h"

#include <string>

#include "core/stream_driver-inl.h"

namespace tcsm {

namespace {

/// Serves a StreamReader's records, numbering arrivals in stream order.
class ReaderSource {
 public:
  explicit ReaderSource(StreamReader* reader)
      : reader_(reader),
        // After SeekToTimestamp the index supplies the count of skipped
        // arrivals, so ids in the suffix match the full replay's exactly.
        next_id_(static_cast<EdgeId>(reader->first_arrival_index())) {}

  Status Next(StreamRecord* record, bool* done) {
    const Status s = reader_->Next(record, done);
    if (s.ok() && !*done && record->kind == StreamRecord::Kind::kArrival) {
      record->edge.id = next_id_++;
    }
    return s;
  }
  std::string name() const { return reader_->source(); }
  Timestamp window() const { return reader_->header().window; }
  bool explicit_expiry() const {
    return reader_->header().explicit_expiry;
  }

 private:
  StreamReader* const reader_;
  EdgeId next_id_;
};

}  // namespace

StatusOr<StreamResult> ReplayStream(StreamReader* reader,
                                    const ReplayOptions& options,
                                    SharedStreamContext* context) {
  reader->set_metrics(options.obs != nullptr ? &options.obs->stages()
                                             : nullptr);
  ReaderSource source(reader);
  StreamResult result = DriveStream(source, options, context);
  if (!result.error.ok()) return result.error;
  return result;
}

}  // namespace tcsm
