#include "vbatt/util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vbatt::util {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool{3};
  const std::size_t n = 10000;
  std::vector<int> hits(n, 0);
  pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, SerialFallbackRunsInlineOnCaller) {
  ThreadPool pool{0};
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
    (void)begin;
    (void)end;
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);  // single inline chunk, no splitting
  EXPECT_EQ(seen.front(), caller);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            if (i == 777) {
                              throw std::runtime_error{"chunk failed"};
                            }
                          }
                        }),
      std::runtime_error);

  // The pool must remain fully usable after a failed parallel_for.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(1000, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000u);
}

TEST(ThreadPool, StressManyRoundsStaysConsistent) {
  ThreadPool pool{4};
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(1 + (round * 37) % 500);
    std::vector<std::size_t> out(n, 0);
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = i * i;
    });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, ParseThreadsHonorsOverrideAndFallsBack) {
  EXPECT_EQ(ThreadPool::parse_threads("8", 4), 8u);
  EXPECT_EQ(ThreadPool::parse_threads("1", 4), 1u);
  EXPECT_EQ(ThreadPool::parse_threads(nullptr, 4), 4u);
  EXPECT_EQ(ThreadPool::parse_threads("", 4), 4u);
  EXPECT_EQ(ThreadPool::parse_threads("0", 4), 4u);
  EXPECT_EQ(ThreadPool::parse_threads("-2", 4), 4u);
  EXPECT_EQ(ThreadPool::parse_threads("lots", 4), 4u);
  EXPECT_EQ(ThreadPool::parse_threads("3x", 4), 4u);
  // Values past kMaxThreads, and ones strtol cannot hold, fall back too:
  // no pool is ever sized from them.
  EXPECT_EQ(ThreadPool::parse_threads("256", 4), 256u);
  EXPECT_EQ(ThreadPool::parse_threads("257", 4), 4u);
  EXPECT_EQ(ThreadPool::parse_threads("100000", 4), 4u);
  EXPECT_EQ(ThreadPool::parse_threads("99999999999999999999999", 4), 4u);
  EXPECT_EQ(ThreadPool::parse_threads("-99999999999999999999999", 4), 4u);
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  ThreadPool pool{2};
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

/// Sets `flag` when it goes out of scope, also when a chunk throws, so a
/// lane waiting on the flag cannot hang on a failing chunk.
struct SetOnExit {
  std::atomic<bool>& flag;
  ~SetOnExit() { flag.store(true, std::memory_order_release); }
};

TEST(ThreadPool, NestedParallelForFromWorkerRunsInline) {
  // Every chunk, on the caller or on a worker, nests a parallel_for on
  // the same pool; each nested call must run inline on the chunk's own
  // thread and cover every index once. The caller's lane holds its chunk
  // until a worker has run one, so a worker's chunk nests for certain
  // (it is picked out by thread id).
  ThreadPool pool{2};
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_nested{false};
  std::atomic<int> worker_chunks{0};
  std::atomic<int> bad{0};
  const auto nest = [&] {
    const auto me = std::this_thread::get_id();
    std::vector<int> hits(100, 0);
    pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
      if (std::this_thread::get_id() != me) bad.fetch_add(1);
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    if (!std::all_of(hits.begin(), hits.end(),
                     [](int h) { return h == 1; })) {
      bad.fetch_add(1);
    }
  };
  EXPECT_NO_THROW(pool.parallel_for(2, [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() == caller) {
      nest();
      while (!worker_nested.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      return;
    }
    const SetOnExit done{worker_nested};
    worker_chunks.fetch_add(1);
    nest();
  }));
  EXPECT_GT(worker_chunks.load(), 0);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, ConcurrentExternalCallersEachCoverEveryIndexOnce) {
  // Two external threads call one pool at once. One job holds the workers
  // at a time and a caller that finds them busy runs inline; either way
  // every index of every job runs exactly once.
  ThreadPool pool{2};
  std::atomic<int> bad{0};
  const auto publish = [&](std::size_t salt) {
    for (std::size_t round = 0; round < 200; ++round) {
      const std::size_t n = 1 + (round * 37 + salt) % 300;
      std::vector<int> hits(n, 0);
      pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
      if (!std::all_of(hits.begin(), hits.end(),
                       [](int h) { return h == 1; })) {
        bad.fetch_add(1);
      }
    }
  };
  std::thread a{publish, 0};
  std::thread b{publish, 11};
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, WorkerMayDriveADifferentPool) {
  // The guard is per-pool: blocking on a *separate* pool from a worker is
  // legal (no lane of the outer pool is needed by the inner loop).
  ThreadPool outer{2};
  ThreadPool inner{2};
  std::atomic<std::size_t> sum{0};
  outer.parallel_for(2, [&](std::size_t begin, std::size_t end) {
    (void)begin;
    (void)end;
    inner.parallel_for(100, [&](std::size_t b, std::size_t e) {
      sum.fetch_add(e - b, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(sum.load(), 200u);
}

}  // namespace
}  // namespace vbatt::util
