// Shared fixed-size thread-pool executor — the library's one scheduling
// path. An Executor is created once (per QueryServer, bench, or CLI
// invocation) and reused, so steady-state serving does zero thread
// creation. Index fan-out that is handed no executor (a SearchBatch
// outside a server) runs on the process-wide Executor::Default() pool
// rather than spawning threads of its own.
//
// The header is dependency-free (standard library only) so the low-level
// index layer can take an optional `serve::Executor*` without a layering
// inversion.
#ifndef DUST_SERVE_EXECUTOR_H_
#define DUST_SERVE_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dust::serve {

/// Fixed pool of worker threads executing submitted tasks FIFO. All methods
/// are thread-safe; tasks may themselves call ParallelFor (nested fan-out
/// cannot deadlock because the calling thread always participates in its
/// own loop). Destruction completes every task already submitted, then
/// joins the workers.
class Executor {
 public:
  /// Spawns `num_threads` workers. 0 is valid and means "run everything
  /// inline on the calling thread" — useful for deterministic tests and as
  /// a no-concurrency fallback.
  explicit Executor(size_t num_threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool for parallel work that was handed no executor:
  /// max(1, hardware_concurrency()) workers, created on first use and never
  /// destroyed (leaked, like obs::SpanCollector::Global(), so a call during
  /// static destruction never meets a joined pool).
  static Executor& Default();

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `fn` for execution on a pool thread (inline when the pool is
  /// empty). The future becomes ready when `fn` returns; `fn` must not
  /// throw (the library does not use exceptions across API boundaries).
  /// A Submit that races with destruction runs `fn` inline on the calling
  /// thread instead of queuing it — the future always becomes ready, never
  /// broken or orphaned.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs body(0..n-1), each index exactly once, and returns when all have
  /// completed. Iterations run concurrently on the pool plus the calling
  /// thread; the caller always drains work itself, so ParallelFor from
  /// inside a pool task completes even when every other worker is busy.
  /// `body` must be safe to invoke concurrently for distinct indices.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Total tasks executed by pool threads (or inline when the pool is
  /// empty) over the executor's lifetime. Observability only — a serving
  /// metrics registry publishes it as a counter.
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

  /// Workers currently inside a task — the executor-utilization gauge
  /// (busy_threads() / num_threads() is the pool's instantaneous load).
  size_t busy_threads() const {
    return busy_.load(std::memory_order_relaxed);
  }

 private:
  struct ForLoop;

  /// Runs ForLoop iterations until the loop's shared counter is exhausted.
  static void Drain(const std::shared_ptr<ForLoop>& loop);

  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<size_t> busy_{0};
  std::vector<std::thread> threads_;
};

}  // namespace dust::serve

#endif  // DUST_SERVE_EXECUTOR_H_
