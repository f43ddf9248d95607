// RAII stage timing helpers bridging the hot paths to the metrics
// registry and the trace writer (DESIGN.md §11).
//
// Both helpers honor the no-op contract: with null handles they never
// read the clock, so an instrumented site with observability off costs
// two pointer tests.
#ifndef TCSM_OBS_STAGE_TIMER_H_
#define TCSM_OBS_STAGE_TIMER_H_

#include <chrono>
#include <cstdint>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tcsm {

/// Driver-side bookkeeping for pipelined batch fan-out, where step
/// boundaries are only observable inside PipelineFor settle callbacks:
/// each Step() closes the span opened by the previous Step()/Restart()
/// (or the constructor), observing its nanoseconds into `hist` (if
/// non-null) and emitting a trace span (if `trace` non-null); Restart()
/// reopens the clock after settle-side work so drain/apply time is not
/// billed to the next step. Names and arg keys must be string literals.
class StepObserver {
 public:
  StepObserver(Histogram* hist, TraceWriter* trace, const char* cat)
      : hist_(hist), trace_(trace), cat_(cat) {
    if (active()) last_ = std::chrono::steady_clock::now();
  }

  bool active() const { return hist_ != nullptr || trace_ != nullptr; }

  void Step(const char* name, const char* arg_key, uint64_t arg_value) {
    if (!active()) return;
    const auto now = std::chrono::steady_clock::now();
    const uint64_t dur = DurationNs(last_, now);
    if (hist_ != nullptr) hist_->Observe(dur);
    if (trace_ != nullptr) {
      trace_->Emit(name, cat_, trace_->ToNs(last_), dur, arg_key, arg_value);
    }
    last_ = now;
  }

  void Restart() {
    if (active()) last_ = std::chrono::steady_clock::now();
  }

 private:
  Histogram* const hist_;
  TraceWriter* const trace_;
  const char* const cat_;
  std::chrono::steady_clock::time_point last_;
};

/// Times one scope as a single StepObserver step, closed on destruction.
class ScopedStage {
 public:
  ScopedStage(Histogram* hist, TraceWriter* trace, const char* name,
              const char* cat, const char* arg_key = nullptr,
              uint64_t arg_value = 0)
      : step_(hist, trace, cat),
        name_(name),
        arg_key_(arg_key),
        arg_value_(arg_value) {}
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;
  ~ScopedStage() { step_.Step(name_, arg_key_, arg_value_); }

 private:
  StepObserver step_;
  const char* const name_;
  const char* const arg_key_;
  const uint64_t arg_value_;
};

}  // namespace tcsm

#endif  // TCSM_OBS_STAGE_TIMER_H_
