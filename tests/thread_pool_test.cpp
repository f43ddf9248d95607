// Unit tests for the exec/ worker pool: lifecycle, the PipelineFor
// completion barrier and step ordering, exception propagation to the
// submitting thread, and the single-thread bypass (no workers, body
// inline on the caller).
#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace tcsm {
namespace {

TEST(ThreadPoolTest, StartupShutdownWithoutWork) {
  // Pools of every shape construct and join cleanly with no job posted.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), std::max<size_t>(n, 1));
    EXPECT_EQ(pool.pooled(), n > 1);
  }
}

/// A one-step pipeline: the plain fan-out every context step is made of.
void FanOut(ThreadPool* pool, size_t n,
            const std::function<void(size_t)>& body) {
  pool->PipelineFor(1, n, [&](size_t, size_t i) { body(i); },
                    [](size_t) {});
}

TEST(ThreadPoolTest, FanOutRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  FanOut(&pool, n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, FanOutIsACompletionBarrier) {
  ThreadPool pool(4);
  // Bodies stagger their finish; after PipelineFor returns every body
  // must have fully completed (the counter equals n, never less).
  std::atomic<size_t> completed{0};
  const size_t n = 64;
  FanOut(&pool, n, [&](size_t i) {
    if (i % 7 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    completed.fetch_add(1);
  });
  EXPECT_EQ(completed.load(), n);
  // The pool is reusable: a second job sees a clean slate.
  completed.store(0);
  FanOut(&pool, n, [&](size_t) { completed.fetch_add(1); });
  EXPECT_EQ(completed.load(), n);
}

TEST(ThreadPoolTest, ActuallyRunsConcurrently) {
  // With 4 threads (3 workers + caller) and 4 bodies that each wait for
  // all 4 to have started, the job can only finish if the bodies really
  // run on distinct threads at the same time.
  ThreadPool pool(4);
  std::atomic<size_t> started{0};
  FanOut(&pool, 4, [&](size_t) {
    started.fetch_add(1);
    while (started.load() < 4) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 4u);
}

TEST(ThreadPoolTest, ExceptionPropagatesToSubmitter) {
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(FanOut(&pool, 100,
                      [&](size_t i) {
                        if (i == 13) throw std::runtime_error("boom");
                        ran.fetch_add(1);
                      }),
               std::runtime_error);
  // The throw happened after the join: nothing is still running, and
  // the pool stays usable.
  std::atomic<size_t> after{0};
  FanOut(&pool, 50, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50u);
}

TEST(ThreadPoolTest, SingleThreadBypassStaysOnCallerThread) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.pooled());
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  FanOut(&pool, 32, [&](size_t) { seen.insert(std::this_thread::get_id()); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
  // Inline mode propagates exceptions directly too, and skips the rest
  // of the loop (fail-fast, like the pooled abort).
  size_t ran = 0;
  EXPECT_THROW(FanOut(&pool, 10,
                      [&](size_t i) {
                        if (i == 3) throw std::runtime_error("x");
                        ++ran;
                      }),
               std::runtime_error);
  EXPECT_EQ(ran, 3u);
}

TEST(ThreadPoolTest, EmptyJobIsANoOp) {
  // Zero steps run nothing at all; zero indices per step still settle.
  ThreadPool pool(4);
  bool touched = false;
  pool.PipelineFor(0, 8, [&](size_t, size_t) { touched = true; },
                   [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
  size_t settled = 0;
  pool.PipelineFor(3, 0, [&](size_t, size_t) { touched = true; },
                   [&](size_t) { ++settled; });
  EXPECT_FALSE(touched);
  EXPECT_EQ(settled, 3u);
}

TEST(ThreadPoolTest, PipelineForRunsEveryStepIndexOnceInStepOrder) {
  ThreadPool pool(4);
  const size_t steps = 37;
  const size_t n = 11;
  std::vector<std::atomic<int>> hits(steps * n);
  // settle_seen[k] is read by the step-(k+1) bodies: PipelineFor promises
  // settle(k) completed — and is visible — before any of them start.
  std::vector<std::atomic<int>> settle_seen(steps + 1);
  settle_seen[0].store(1);
  pool.PipelineFor(
      steps, n,
      [&](size_t k, size_t i) {
        EXPECT_EQ(settle_seen[k].load(), 1) << "step " << k << " opened "
                                            << "before settle(k-1)";
        hits[k * n + i].fetch_add(1);
      },
      [&](size_t k) {
        // All of step k's bodies must be complete here.
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[k * n + i].load(), 1) << "step " << k << " index "
                                               << i;
        }
        settle_seen[k + 1].store(1);
      });
  for (size_t j = 0; j < steps * n; ++j) EXPECT_EQ(hits[j].load(), 1);
  EXPECT_EQ(settle_seen[steps].load(), 1);
  // The pool is reusable afterwards.
  std::atomic<size_t> after{0};
  pool.PipelineFor(2, 4, [&](size_t, size_t) { after.fetch_add(1); },
                   [](size_t) {});
  EXPECT_EQ(after.load(), 8u);
}

TEST(ThreadPoolTest, PipelineForBodyExceptionSkipsRemainingSettles) {
  ThreadPool pool(4);
  std::atomic<size_t> settled{0};
  std::atomic<size_t> bodies{0};
  EXPECT_THROW(pool.PipelineFor(8, 6,
                                [&](size_t k, size_t) {
                                  if (k == 2) {
                                    throw std::runtime_error("boom");
                                  }
                                  bodies.fetch_add(1);
                                },
                                [&](size_t) { settled.fetch_add(1); }),
               std::runtime_error);
  // Steps 0 and 1 settled; the failing step and everything after are
  // abandoned (bodies may be skipped, settles must be).
  EXPECT_EQ(settled.load(), 2u);
  std::atomic<size_t> after{0};
  FanOut(&pool, 10, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10u);
}

TEST(ThreadPoolTest, PipelineForSettleExceptionPropagates) {
  ThreadPool pool(4);
  std::atomic<size_t> settled{0};
  EXPECT_THROW(pool.PipelineFor(5, 3, [&](size_t, size_t) {},
                                [&](size_t k) {
                                  if (k == 1) {
                                    throw std::runtime_error("boom");
                                  }
                                  settled.fetch_add(1);
                                }),
               std::runtime_error);
  EXPECT_EQ(settled.load(), 1u);
}

TEST(ThreadPoolTest, PipelineForInlineBypass) {
  // No workers: the pipeline runs inline on the caller, steps strictly in
  // order, exceptions propagating directly.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<size_t, size_t>> order;
  pool.PipelineFor(3, 2,
                   [&](size_t k, size_t i) {
                     EXPECT_EQ(std::this_thread::get_id(), caller);
                     order.emplace_back(k, i);
                   },
                   [&](size_t k) { order.emplace_back(k, size_t{99}); });
  const std::vector<std::pair<size_t, size_t>> want{
      {0, 0}, {0, 1}, {0, 99}, {1, 0}, {1, 1}, {1, 99},
      {2, 0}, {2, 1}, {2, 99}};
  EXPECT_EQ(order, want);
  // n <= 1 takes the same inline path even on a pooled pool.
  ThreadPool pooled(4);
  size_t ran = 0;
  pooled.PipelineFor(4, 1, [&](size_t, size_t) { ++ran; },
                     [&](size_t) { ++ran; });
  EXPECT_EQ(ran, 8u);
}

}  // namespace
}  // namespace tcsm
