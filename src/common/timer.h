// Wall-clock durations, stopwatch and soft deadlines for per-query time
// limits.
#ifndef TCSM_COMMON_TIMER_H_
#define TCSM_COMMON_TIMER_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace tcsm {

/// Nanoseconds from `start` to `end` (default: now), 0 if `end` comes
/// first: the one conversion behind the engines' phase counters, the
/// stage histograms and the trace spans.
inline uint64_t DurationNs(
    std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point end =
        std::chrono::steady_clock::now()) {
  return end < start ? 0
                     : static_cast<uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               end - start)
                               .count());
}

class StopWatch {
 public:
  StopWatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A deadline that search loops poll cheaply: `Expired()` only consults the
/// clock every `kCheckInterval` calls so the hot backtracking path is not
/// dominated by clock reads. One Deadline is shared by every engine of a
/// stream context, and ParallelStreamContext polls it from several worker
/// threads at once, so the expired flag is a relaxed atomic latch (expiry
/// is monotone — racing polls can only differ on *when* they first
/// observe it, which the soft-deadline contract already allows) and the
/// poll-stride counter is thread-local rather than a member: a shared
/// counter would put a contended read-modify-write on the innermost
/// search loop of every worker, costing more than the clock reads it
/// amortizes. The stride phase therefore varies per thread/run; only the
/// polling *rate* is contractual.
class Deadline {
 public:
  /// Unlimited deadline.
  Deadline() : has_limit_(false) {}

  explicit Deadline(double limit_ms)
      : has_limit_(limit_ms > 0),
        end_(Clock::now() +
             std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(limit_ms))) {}

  bool Expired() {
    if (!has_limit_) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    thread_local uint32_t calls = 0;
    if (++calls % kCheckInterval != 0) return false;
    if (Clock::now() >= end_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Unconditional clock check (used between stream events).
  bool ExpiredNow() {
    if (!has_limit_) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (Clock::now() >= end_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr uint32_t kCheckInterval = 1024;

  bool has_limit_;
  std::atomic<bool> expired_{false};
  Clock::time_point end_{};
};

}  // namespace tcsm

#endif  // TCSM_COMMON_TIMER_H_
