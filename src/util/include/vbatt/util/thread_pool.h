// Fixed-size thread pool and a deterministic parallel_for.
//
// The scheduler hot path (clique ranking, per-site capacity refresh) and
// the input builds (fleet generation, the forecast fill) fan independent
// work items across cores.
// Determinism is part of the contract: parallel_for cuts [0, n) into
// contiguous chunks and every index is executed exactly once, with every
// item writing only its own pre-assigned output slot — so parallel
// results are bit-identical to a serial run. The thread count (and which
// thread happens to claim which chunk) changes wall-clock time, never
// the answer.
//
// Dispatch is built for barrier-heavy callers: a parallel_for publishes
// one job descriptor and a packed atomic claim word; the caller and any
// awake workers claim chunks with a CAS each, the caller participating
// until no chunks remain. Workers spin briefly between jobs before
// parking on a condition variable; a publisher wakes at most one parked
// worker and claimants chain further wakeups only while unclaimed chunks
// remain. On a single-core host the caller typically claims every chunk
// itself and a barrier costs little more than the CAS loop — the pooled
// path stays within a few percent of serial instead of paying a
// wake/park round-trip per chunk.
//
// Sizing: ThreadPool::shared() holds `default_threads() - 1` workers
// (the calling thread participates as the extra lane). default_threads()
// honors the VBATT_THREADS environment variable; VBATT_THREADS=1 (or a
// zero-worker pool) is the serial fallback — the body runs inline on the
// caller with no synchronization at all.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vbatt::util {

class ThreadPool {
 public:
  /// Spawn `n_workers` worker threads (0 = serial pool, no threads).
  explicit ThreadPool(std::size_t n_workers);

  /// Drains every queued task, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (the caller adds one more lane during
  /// parallel_for).
  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a fire-and-forget task. Runs inline when the pool has no
  /// workers. Exception-safe: a task that throws never terminates the
  /// process — the first exception is captured and rethrown by the next
  /// drain() (mirroring parallel_for's caller-rethrow contract).
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished, then rethrow
  /// the first exception any of them threw (clearing it). Safe to call
  /// repeatedly; a no-op on an idle pool. Throws std::logic_error when
  /// called from one of this pool's own workers (it would deadlock:
  /// running_ counts the caller itself).
  void drain();

  /// Run `body(begin, end)` over contiguous chunks of [0, n). The calling
  /// thread claims and executes chunks alongside the workers; returns
  /// after every chunk finished. The first exception thrown by any chunk
  /// is rethrown on the caller (remaining chunks still complete). With no
  /// workers (or n too small to split) the body runs inline as
  /// body(0, n) — the serial fallback. Concurrent parallel_for calls from
  /// different external threads are serialized on an internal gate.
  /// Throws std::logic_error when called from one of this pool's own
  /// workers: the nested job would wait on lanes that are already
  /// occupied, a silent deadlock once every worker nests. Nested
  /// parallelism needs a separate pool (or a serial inner loop).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Whether the calling thread is one of this pool's own workers, where
  /// parallel_for and drain throw. Callers that may run either inside or
  /// outside a pool task use it to pick a serial path instead.
  bool on_worker_thread() const noexcept;

  /// Intended total parallelism: VBATT_THREADS if set (clamped to >= 1),
  /// otherwise std::thread::hardware_concurrency().
  static std::size_t default_threads();

  /// Parse a VBATT_THREADS-style value; nullptr/empty/garbage fall back
  /// to `fallback`. Exposed for tests.
  static std::size_t parse_threads(const char* value, std::size_t fallback);

  /// Process-wide pool sized from default_threads() (that many lanes
  /// including the caller). Serial when default_threads() <= 1.
  static ThreadPool& shared();

 private:
  void worker_loop();
  bool run_one_task();
  bool run_job_chunks();
  bool try_claim(std::size_t& chunk);
  void run_chunk(std::size_t chunk);
  bool job_available() const;

  // Submit/drain machinery: a mutex-guarded task queue, as in the
  // original design (submissions are rare and latency-insensitive).
  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable idle_;
  std::queue<std::function<void()>> tasks_;
  /// Lock-free mirror of tasks_.size() so spinning workers can poll the
  /// queue without touching mutex_.
  std::atomic<std::size_t> pending_tasks_{0};
  std::atomic<bool> stopping_{false};
  /// Tasks popped from the queue but still running (guarded by mutex_).
  std::size_t running_ = 0;
  /// Workers parked on ready_ (modified under mutex_; read relaxed as a
  /// wake heuristic — a stale read costs parallelism, never correctness:
  /// the publisher always completes its own job).
  std::atomic<int> sleepers_{0};
  /// First exception thrown by a submitted task; rethrown by drain().
  std::exception_ptr submit_error_;

  // parallel_for job slot. One job is in flight at a time (job_gate_
  // serializes publishers); the descriptor below is written by the
  // publisher before the release-store of job_word_ and read by workers
  // after their acquire CAS on it.
  std::mutex job_gate_;
  /// Packed [unused:40][n_chunks:12][next:12]. A claim CASes next+1 while
  /// next < n_chunks; once all chunks are claimed the word is inert until
  /// the next publish.
  std::atomic<std::uint64_t> job_word_{0};
  const std::function<void(std::size_t, std::size_t)>* job_body_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_chunks_ = 0;
  std::atomic<std::size_t> job_done_{0};
  std::mutex job_error_mutex_;
  std::exception_ptr job_error_;
  std::mutex job_wait_mutex_;
  std::condition_variable job_cv_;

  std::vector<std::thread> workers_;
};

}  // namespace vbatt::util
