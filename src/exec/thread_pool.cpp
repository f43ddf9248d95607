#include "exec/thread_pool.h"

#include <chrono>
#include <utility>

namespace tcsm {

namespace {

/// Step-fence wait: brief spin, then yield, then sleep. The pipeline
/// fences are expected to resolve in microseconds, but on an
/// oversubscribed machine (more participants than cores) a pure spin
/// would starve the very thread being waited on.
inline void PipelineBackoff(uint32_t* spins) {
  const uint32_t s = ++*spins;
  if (s < 64) return;
  if (s < 4096) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/// Polls an idle worker makes for the next job before it blocks: stream
/// events arrive back to back, so a worker that stays awake between them
/// joins the next job without a kernel wake-up. The first 64 polls spin,
/// the rest yield the core.
constexpr uint32_t kIdlePolls = 2048;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) return;
  workers_.reserve(num_threads - 1);
  try {
    for (size_t t = 0; t + 1 < num_threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // Thread exhaustion (std::system_error): shut down the workers that
    // did start, then surface the error as a catchable exception instead
    // of letting ~vector terminate on joinable threads.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RecordError(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::move(error);
  }
  abort_.store(true, std::memory_order_relaxed);
}

bool ThreadPool::TryRun(const Body& body, size_t idx, size_t n) {
  if (!next_.compare_exchange_weak(idx, idx + 1,
                                   std::memory_order_relaxed)) {
    return false;
  }
  if (!abort_.load(std::memory_order_relaxed)) {
    try {
      body(idx / n, idx % n);
    } catch (...) {
      RecordError(std::current_exception());
    }
  }
  done_.fetch_add(1, std::memory_order_release);
  return true;
}

void ThreadPool::Participate(const Body& body, size_t steps, size_t n) {
  const size_t total = steps * n;
  uint32_t spins = 0;
  for (;;) {
    const size_t idx = next_.load(std::memory_order_relaxed);
    if (idx >= total) return;
    // The acquire pairs with the caller's release after settle(k-1), so
    // a step-k body sees the settle's effects.
    if (idx < open_.load(std::memory_order_acquire) * n) {
      if (TryRun(body, idx, n)) spins = 0;
    } else {
      PipelineBackoff(&spins);
    }
  }
}

uint64_t ThreadPool::AwaitJob(uint64_t seen) {
  const auto fresh = [&]() -> uint64_t {
    const uint64_t job = job_.load(std::memory_order_acquire);
    return job != seen ? job : 0;
  };
  for (uint32_t polls = 0; polls < kIdlePolls; ++polls) {
    if (stop_.load(std::memory_order_relaxed)) return 0;
    if (const uint64_t job = fresh()) return job;
    if (polls >= 64) std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t job = 0;
  work_cv_.wait(lock, [&] {
    return stop_.load(std::memory_order_relaxed) || (job = fresh()) != 0;
  });
  return stop_.load(std::memory_order_relaxed) ? 0 : job;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  while (const uint64_t job = AwaitJob(seen)) {
    seen = job;
    inside_.fetch_add(1, std::memory_order_seq_cst);
    if (job_.load(std::memory_order_seq_cst) == job) {
      Participate(*body_, steps_, n_);
    }
    inside_.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::PipelineFor(size_t steps, size_t n,
                             const std::function<void(size_t, size_t)>& body,
                             const std::function<void(size_t)>& settle) {
  if (steps == 0) return;
  if (workers_.empty() || n <= 1) {
    // Inline bypass: no workers, or nothing to fan out per step.
    for (size_t k = 0; k < steps; ++k) {
      for (size_t i = 0; i < n; ++i) body(k, i);
      settle(k);
    }
    return;
  }
  // Workers still inside the previous (closed, fully claimed) job only
  // have to notice that; wait for them before reusing the job state.
  uint32_t spins = 0;
  while (inside_.load(std::memory_order_acquire) != 0) {
    PipelineBackoff(&spins);
  }
  body_ = &body;
  steps_ = steps;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  open_.store(1, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    first_error_ = nullptr;
    job_.store(++last_job_, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (size_t k = 0; k < steps; ++k) {
    // Claim step-k indices alongside the workers: the caller never waits
    // for a worker to wake up, only for bodies a worker already claimed.
    const size_t end = (k + 1) * n;
    for (size_t idx = next_.load(std::memory_order_relaxed); idx < end;
         idx = next_.load(std::memory_order_relaxed)) {
      TryRun(body, idx, n);
    }
    // Step fence: every step-k body has finished (their release
    // increments make the effects visible here).
    spins = 0;
    while (done_.load(std::memory_order_acquire) < end) {
      PipelineBackoff(&spins);
    }
    if (!abort_.load(std::memory_order_relaxed)) {
      try {
        settle(k);
      } catch (...) {
        RecordError(std::current_exception());
      }
    }
    // Open step k+1; the release publishes settle(k)'s effects.
    if (k + 1 < steps) open_.store(k + 2, std::memory_order_release);
  }
  // Close the job. Every index is claimed and done, so a worker still
  // inside only re-reads next_ and leaves; the seq_cst store pairs with
  // the seq_cst enter in WorkerLoop, so no worker joins a closed job.
  job_.store(0, std::memory_order_seq_cst);
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace tcsm
