#include "exec/result_sink.h"

namespace tcsm {

void BufferedMatchSink::Drain() {
  if (buffer_.empty()) return;
  if (downstream_ != nullptr) {
    for (const Record& r : buffer_) {
      downstream_->OnMatch(r.embedding, r.kind, r.multiplicity);
    }
  }
  buffer_.clear();
}

void SinkBuffers::Sync(const std::vector<ContinuousEngine*>& engines) {
  while (buffers_.size() < engines.size()) buffers_.emplace_back();
  for (size_t i = 0; i < engines.size(); ++i) {
    MatchSink* current = engines[i]->sink();
    if (current == &buffers_[i]) continue;
    buffers_[i].set_downstream(current);
    if (current != nullptr) engines[i]->set_sink(&buffers_[i]);
  }
}

}  // namespace tcsm
