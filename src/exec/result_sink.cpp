#include "exec/result_sink.h"

namespace tcsm {

void BufferedMatchSink::Drain() {
  if (size_ == 0) return;
  if (downstream_ != nullptr) {
    for (size_t i = 0; i < size_; ++i) {
      const Record& r = buffer_[i];
      downstream_->OnMatch(r.embedding, r.kind, r.multiplicity);
    }
  }
  size_ = 0;
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
