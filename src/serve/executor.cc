#include "serve/executor.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <utility>

namespace dust::serve {

namespace {

/// The calling thread's installed pool; null means Executor::Default().
/// A worker sets it to its own executor once, at start.
thread_local Executor* tls_current = nullptr;

}  // namespace

/// Shared state of one ParallelFor call. Kept alive by shared_ptr because
/// helper tasks may still sit in the queue after the loop finished (they
/// wake up, see the counter exhausted, and return without touching `body`).
struct Executor::ForLoop {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t grain = 1;
  /// The caller plus the helpers enqueued for this loop.
  size_t participants = 1;
  /// The first index no claim has taken.
  std::atomic<size_t> next{0};
  /// Indices whose ranges have completed.
  std::atomic<size_t> done{0};
  std::mutex m;
  std::condition_variable all_done;
};

Executor::Executor(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor& Executor::Default() {
  static Executor* pool = new Executor(AvailableCpus());
  return *pool;
}

Executor& Executor::Current() {
  return tls_current != nullptr ? *tls_current : Default();
}

ScopedExecutor::ScopedExecutor(Executor& executor) : saved_(tls_current) {
  tls_current = &executor;
}

ScopedExecutor::~ScopedExecutor() { tls_current = saved_; }

size_t Executor::AvailableCpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<size_t>(count);
  }
#endif
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Executor::WorkerLoop() {
  // Every task a worker runs is a range of one of this executor's loops.
  tls_current = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      // Drain the queue even while stopping: a helper left over from a
      // finished loop returns at once.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    busy_.fetch_add(1, std::memory_order_relaxed);
    task();
    busy_.fetch_sub(1, std::memory_order_relaxed);
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Executor::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void Executor::Drain(const std::shared_ptr<ForLoop>& loop) {
  size_t begin = loop->next.load();
  while (begin < loop->n) {
    // Guided self-scheduling: a share of what is left, never below grain.
    const size_t remaining = loop->n - begin;
    const size_t claim = std::min(
        remaining,
        std::max(loop->grain, remaining / (2 * loop->participants)));
    // On failure the exchange reloads `begin` and the claim is resized.
    if (!loop->next.compare_exchange_weak(begin, begin + claim)) continue;
    (*loop->body)(begin, begin + claim);
    if (loop->done.fetch_add(claim) + claim == loop->n) {
      // Taking the mutex pairs this notify with the waiter's predicate
      // check, so the wakeup cannot slip into the gap before the wait.
      std::lock_guard<std::mutex> lock(loop->m);
      loop->all_done.notify_all();
    }
    begin = loop->next.load();
  }
}

void Executor::ParallelFor(size_t n, size_t grain,
                           const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  const ScopedExecutor scope(*this);
  grain = std::max<size_t>(grain, 1);
  if (threads_.empty() || n <= grain) {
    body(0, n);
    return;
  }
  auto loop = std::make_shared<ForLoop>();
  loop->body = &body;
  loop->n = n;
  loop->grain = grain;
  // Every claim but the last takes at least `grain` indices, so at most
  // ceil(n / grain) claims exist; the caller takes one, so more than
  // ceil(n / grain) - 1 helpers would find nothing, and none is needed:
  // the caller claims whatever no helper took. `body` stays valid for
  // helpers: a range is only claimed while done < n, and the caller cannot
  // return (invalidating `body`) until done == n.
  const size_t helpers = std::min(threads_.size(), (n - 1) / grain);
  loop->participants = helpers + 1;
  for (size_t h = 0; h < helpers; ++h) {
    Enqueue([loop] { Drain(loop); });
  }
  Drain(loop);
  std::unique_lock<std::mutex> lock(loop->m);
  loop->all_done.wait(lock, [&] { return loop->done.load() == loop->n; });
}

}  // namespace dust::serve
