// Per-engine result buffering for pooled notification steps. While the
// parallel context fans an edge out across workers (one step
// of a ThreadPool::PipelineFor job), every engine reports into its own
// BufferedMatchSink — engine-private, so appends are lock-free by
// construction (exactly one worker runs a given engine's notification per
// step). In the step's settle hook the driver thread drains the buffers
// in engine-attach order, forwarding each record to the sink the caller
// originally installed on the engine. Within one engine the buffer
// preserves production order, and the drain order equals the serial
// fan-out order, so the downstream sinks observe a match stream
// byte-identical to serial execution (DESIGN.md §6).
#ifndef TCSM_EXEC_RESULT_SINK_H_
#define TCSM_EXEC_RESULT_SINK_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/engine.h"

namespace tcsm {

class BufferedMatchSink : public MatchSink {
 public:
  explicit BufferedMatchSink(MatchSink* downstream = nullptr)
      : downstream_(downstream) {}

  /// The caller-installed sink this buffer forwards to on Drain(). May be
  /// retargeted between batches (never during a pipeline job).
  void set_downstream(MatchSink* downstream) { downstream_ = downstream; }
  MatchSink* downstream() const { return downstream_; }

  /// Mirrors the downstream verdict so an engine factors interchangeable
  /// parallel edges exactly as it would reporting straight to the
  /// downstream (a null downstream matches the null-sink serial path,
  /// which counts one representative with a multiplicity).
  bool wants_each_embedding() const override {
    return downstream_ != nullptr && downstream_->wants_each_embedding();
  }

  /// Copies into a record slot kept from earlier steps, so a warm buffer
  /// appends without allocating.
  void OnMatch(const Embedding& embedding, MatchKind kind,
               uint64_t multiplicity) override {
    if (size_ == buffer_.size()) buffer_.emplace_back();
    Record& r = buffer_[size_++];
    r.embedding.vertices.assign(embedding.vertices.begin(),
                                embedding.vertices.end());
    r.embedding.edges.assign(embedding.edges.begin(), embedding.edges.end());
    r.kind = kind;
    r.multiplicity = multiplicity;
  }

  /// Forwards every buffered record downstream in production order and
  /// clears the buffer. Driver thread only, after the step fence.
  void Drain();

  /// Clears the buffer without forwarding — used when a step failed and
  /// its partial results must not leak into a later event's drain.
  void Discard() { size_ = 0; }

  bool empty() const { return size_ == 0; }

 private:
  struct Record {
    Embedding embedding;
    MatchKind kind;
    uint64_t multiplicity;
  };

  MatchSink* downstream_;
  /// The first size_ records are pending; the rest are spare slots.
  std::vector<Record> buffer_;
  size_t size_ = 0;
};

/// The buffered-sink protocol of the parallel context: buffer i sits in
/// front of the sink the caller installed on engine i
/// (SharedStreamContext::engines() order).
class SinkBuffers {
 public:
  /// Interposes a buffer in front of every engine's current sink. Runs on
  /// the driver thread before each pooled batch, so engines attached or
  /// re-sinked between batches are picked up. A null sink stays null —
  /// the engine then only counts, exactly as in serial execution.
  void Sync(const std::vector<ContinuousEngine*>& engines);

  /// Drains every buffer in attach order: the serial match order.
  void DrainAll() {
    for (BufferedMatchSink& buffer : buffers_) buffer.Drain();
  }

  /// Runs `phase` (a pipeline job), discarding every buffer if it throws:
  /// a failed step poisons the batch, and engines that did complete must
  /// not have their matches replayed under a later event's drain. (Engine index state may
  /// be inconsistent after an exception either way; the context is not
  /// fit to continue the same stream.)
  template <typename Phase>
  void RunOrDiscard(Phase&& phase) {
    try {
      phase();
    } catch (...) {
      for (BufferedMatchSink& buffer : buffers_) buffer.Discard();
      throw;
    }
  }

 private:
  /// A deque keeps every buffer's address stable as engines attach.
  std::deque<BufferedMatchSink> buffers_;
};

}  // namespace tcsm

#endif  // TCSM_EXEC_RESULT_SINK_H_
