// Persistent worker pool for the parallel execution subsystem. One pool
// is created per parallel context (sharded too) and reused across every
// stream event, so the per-event cost is publishing a job, not creating
// threads. The only primitive is a blocking PipelineFor: a sequence of
// fan-out steps, each spread over the workers plus the calling thread,
// separated by a caller-only settle hook, with the first exception
// rethrown on the caller. A single fan-out is a one-step pipeline. With
// `num_threads <= 1` no workers are spawned at all and PipelineFor runs
// inline on the caller thread (the serial fast path — contexts
// constructed with one thread behave exactly like serial code).
#ifndef TCSM_EXEC_THREAD_POOL_H_
#define TCSM_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcsm {

class ThreadPool {
 public:
  /// `num_threads` is the total parallelism including the thread that
  /// calls PipelineFor: `num_threads - 1` workers are spawned, none for
  /// `num_threads <= 1`.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the caller thread (>= 1).
  size_t num_threads() const { return workers_.size() + 1; }
  /// True when worker threads exist; false in the inline bypass mode.
  bool pooled() const { return !workers_.empty(); }

  /// Runs a `steps`-deep pipeline as ONE pool job: for every step k in
  /// order, body(k, 0) ... body(k, n-1) are claimed dynamically by the
  /// workers and the caller; once every step-k body has finished, the
  /// caller alone runs settle(k), and only then does step k+1 open. The
  /// caller never waits for a worker to wake up — it claims whatever no
  /// worker has, so a job too short for the workers to join runs on the
  /// caller alone — and the step fences are spin/yield waits on the
  /// bodies already claimed (DESIGN.md §6, §9).
  ///
  /// Ordering guarantees: all body(k, ·) effects are visible to settle(k),
  /// all settle(k) effects are visible to every body(k+1, ·), and no body
  /// is still running when this returns. If a body or settle throws, the
  /// remaining bodies and settles are skipped (steps still drain) and the
  /// first exception is rethrown after the job completes. Without workers
  /// — or with n <= 1, where there is nothing to fan out — the pipeline
  /// runs inline on the caller with direct exception propagation. Not
  /// reentrant: a body or settle must not call PipelineFor on the same
  /// pool.
  void PipelineFor(size_t steps, size_t n,
                   const std::function<void(size_t, size_t)>& body,
                   const std::function<void(size_t)>& settle);

 private:
  using Body = std::function<void(size_t, size_t)>;

  void WorkerLoop();
  /// Waits for a job other than `seen` (poll, then block on work_cv_);
  /// returns its generation, or 0 on shutdown.
  uint64_t AwaitJob(uint64_t seen);
  /// Worker half of PipelineFor: claims open-step indices until every
  /// index of the job is claimed.
  void Participate(const Body& body, size_t steps, size_t n);
  /// Claims index `idx` of the current job if it is still the next
  /// unclaimed one; on success runs it and counts it done.
  bool TryRun(const Body& body, size_t idx, size_t n);
  /// Keeps the first exception of the job and aborts the remaining
  /// bodies and settles.
  void RecordError(std::exception_ptr error);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // job opened, or stopping
  std::exception_ptr first_error_;   // guarded by mu_
  /// Written under mu_ (so blocked workers never miss it), read anywhere.
  std::atomic<bool> stop_{false};

  /// Generation of the open job, 0 between jobs. Stored (release) under
  /// mu_ after the job fields below are written; a worker enters the job
  /// by incrementing inside_ and then re-reading job_ (both seq_cst), so
  /// once the caller has closed the job and seen inside_ == 0, no worker
  /// can still touch its fields or claim its indices.
  std::atomic<uint64_t> job_{0};
  std::atomic<size_t> inside_{0};
  uint64_t last_job_ = 0;  // caller-only generation counter
  const Body* body_ = nullptr;
  size_t steps_ = 0;
  size_t n_ = 0;

  /// Next unclaimed index of the job, over [0, steps * n): index j is
  /// body(j / n, j % n), claimable once its step is open.
  std::atomic<size_t> next_{0};
  /// Steps whose bodies may run: step k is open once open_ > k
  /// (release-published by the caller after settle(k-1)).
  std::atomic<size_t> open_{0};
  /// Bodies finished, skipped ones included; step k has drained once
  /// done_ >= (k + 1) * n (each body's release increment makes its
  /// effects visible to settle(k)).
  std::atomic<size_t> done_{0};
  /// Set on the first exception: remaining bodies and settles are
  /// skipped while the indices still drain.
  std::atomic<bool> abort_{false};
};

}  // namespace tcsm

#endif  // TCSM_EXEC_THREAD_POOL_H_
