// Chrome-trace / Perfetto span collection (DESIGN.md §11).
//
// Spans are complete-duration ("ph":"X") events recorded against a
// steady-clock epoch captured at writer construction, tagged with a
// small sequential per-thread id so the driver thread and each pool
// worker render as separate tracks. Emit() takes a mutex and may grow a
// vector — tracing is strictly opt-in (--trace-out) and is NOT part of
// the metrics-only overhead contract. Span names and categories must be
// string literals (or otherwise outlive the writer); they are written
// verbatim, unescaped, into the JSON.
#ifndef TCSM_OBS_TRACE_H_
#define TCSM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "common/timer.h"

namespace tcsm {

class TraceWriter {
 public:
  TraceWriter() : epoch_(std::chrono::steady_clock::now()) {}
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Nanoseconds since the writer's epoch.
  uint64_t NowNs() const { return ToNs(std::chrono::steady_clock::now()); }
  uint64_t ToNs(std::chrono::steady_clock::time_point tp) const {
    return DurationNs(epoch_, tp);
  }

  /// Record one complete-duration span on the calling thread's track.
  /// An optional single integer argument (e.g. batch size, shard index)
  /// lands in the span's "args" object.
  void Emit(const char* name, const char* cat, uint64_t start_ns,
            uint64_t dur_ns, const char* arg_key = nullptr,
            uint64_t arg_value = 0);

  size_t NumSpans() const;

  /// Serialize everything as a chrome://tracing JSON object
  /// ({"traceEvents":[...]}) with thread_name metadata records.
  void WriteJson(std::ostream& out) const;

 private:
  struct Span {
    const char* name;
    const char* cat;
    uint64_t start_ns;
    uint64_t dur_ns;
    uint32_t tid;
    const char* arg_key;  // null = no args
    uint64_t arg_value;
  };

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace tcsm

#endif  // TCSM_OBS_TRACE_H_
