#include "serve/executor.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace dust::serve {

/// Shared state of one ParallelFor call. Kept alive by shared_ptr because
/// helper tasks may still sit in the queue after the loop finished (they
/// wake up, see the counter exhausted, and return without touching `body`).
struct Executor::ForLoop {
  const std::function<void(size_t)>* body = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};
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
  static Executor* pool = new Executor(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return *pool;
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
  for (size_t i = loop->next.fetch_add(1); i < loop->n;
       i = loop->next.fetch_add(1)) {
    (*loop->body)(i);
    if (loop->done.fetch_add(1) + 1 == loop->n) {
      // Taking the mutex pairs this notify with the waiter's predicate
      // check, so the wakeup cannot slip into the gap before the wait.
      std::lock_guard<std::mutex> lock(loop->m);
      loop->all_done.notify_all();
    }
  }
}

void Executor::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto loop = std::make_shared<ForLoop>();
  loop->body = &body;
  loop->n = n;
  // The caller takes one share of the work, so at most n-1 helpers are
  // useful, and none is needed: the caller claims whatever no helper took.
  // `body` stays valid for helpers: an iteration is only claimed while
  // done < n, and the caller cannot return (invalidating `body`) until
  // done == n.
  const size_t helpers = std::min(threads_.size(), n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Enqueue([loop] { Drain(loop); });
  }
  Drain(loop);
  std::unique_lock<std::mutex> lock(loop->m);
  loop->all_done.wait(lock, [&] { return loop->done.load() == loop->n; });
}

}  // namespace dust::serve
