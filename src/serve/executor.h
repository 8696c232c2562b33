// Shared fixed-size thread-pool executor — the library's one scheduling
// path. An Executor is created once (per QueryServer, bench, or CLI
// invocation) and reused, so steady-state serving does zero thread
// creation. Library loops take no pool: each runs on Executor::Current(),
// which a program picks for a scope with ScopedExecutor (a server's own
// pool, or Executor(0) for a serial run) and which is otherwise the
// process-wide Executor::Default().
//
// The header is dependency-free (standard library only), so every layer,
// down to the index scan, can include it without a layering inversion.
#ifndef DUST_SERVE_EXECUTOR_H_
#define DUST_SERVE_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dust::serve {

/// Fixed pool of worker threads that help run ParallelFor loops. All
/// methods are thread-safe; loop bodies may themselves call ParallelFor
/// (nested fan-out cannot deadlock because the calling thread always
/// participates in its own loop). Destruction runs every helper task still
/// queued, then joins the workers.
class Executor {
 public:
  /// Spawns `num_threads` workers. 0 is valid and means "run everything
  /// inline on the calling thread" — useful for deterministic tests and as
  /// a no-concurrency fallback.
  explicit Executor(size_t num_threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool for parallel work outside any ScopedExecutor:
  /// AvailableCpus() workers as the first caller sees them, created on
  /// first use and never destroyed (leaked, like
  /// obs::SpanCollector::Global(), so a call during static destruction
  /// never meets a joined pool).
  static Executor& Default();

  /// The pool the calling thread's loops run on: the one installed by its
  /// innermost live ScopedExecutor, else Default(). A body run by a pool's
  /// ParallelFor, on the caller or on a worker, sees that pool.
  static Executor& Current();

  /// The CPUs the calling thread may run on: CPU_COUNT of its
  /// sched_getaffinity mask, so a process started under `taskset -c 0,1`
  /// counts 2 on a 4-CPU host. Falls back to hardware_concurrency(), then
  /// to 1.
  static size_t AvailableCpus();

  size_t num_threads() const { return threads_.size(); }

  /// Runs body(begin, end) over disjoint ranges that cover [0, n) exactly
  /// once, and returns when all have completed. Ranges run concurrently on
  /// the pool plus the calling thread; the caller always drains work
  /// itself, so ParallelFor from inside a pool task completes even when
  /// every other worker is busy. Each claim takes about remaining /
  /// (2 x participants) indices and never fewer than `grain` (the last may
  /// be shorter), so claims shrink as the range drains and the
  /// participants finish close together. A loop with n <= grain runs as
  /// body(0, n) on the caller without waking a helper: pass as `grain` the
  /// number of indices whose work outweighs a pooled round trip. `body`
  /// must be safe to invoke concurrently for disjoint ranges. Every range
  /// runs with this executor as Current().
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Total helper tasks executed by pool threads over the executor's
  /// lifetime. Observability only — a serving metrics registry publishes it
  /// as a counter.
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

  /// Claims and runs ForLoop ranges until the loop's counter is exhausted.
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

/// Installs `executor` as the calling thread's Executor::Current() for the
/// scope's lifetime and restores the previous one on destruction. The
/// executor must outlive the scope.
class ScopedExecutor {
 public:
  explicit ScopedExecutor(Executor& executor);
  ~ScopedExecutor();

  ScopedExecutor(const ScopedExecutor&) = delete;
  ScopedExecutor& operator=(const ScopedExecutor&) = delete;

 private:
  Executor* saved_;
};

}  // namespace dust::serve

#endif  // DUST_SERVE_EXECUTOR_H_
