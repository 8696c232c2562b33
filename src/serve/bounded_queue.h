// Bounded MPMC queue with blocking backpressure — the admission control of
// the query server. A full queue blocks producers (Submit) instead of
// dropping requests; a closed queue drains whatever is already admitted so
// shutdown completes in-flight work.
#ifndef DUST_SERVE_BOUNDED_QUEUE_H_
#define DUST_SERVE_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace dust::serve {

/// Fixed-capacity multi-producer multi-consumer FIFO. All methods are
/// thread-safe. T must be movable (it may hold a promise).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full (backpressure, never drops). True once
  /// `item` is enqueued; false — leaving `item` untouched — when the queue
  /// was closed before space opened up. Push after Close() is well-defined
  /// and non-blocking: it returns false immediately and `item` keeps its
  /// value, so the producer can complete the request itself (fail the
  /// promise, run inline) instead of leaking it.
  bool Push(T&& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    ++total_pushed_;
    if (items_.size() > max_depth_) max_depth_ = items_.size();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available. False only when the queue is closed
  /// AND drained — every admitted item is still delivered after Close().
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    return PopLocked(&lock, out);
  }

  /// As Pop, but gives up at `deadline`: false on timeout with the queue
  /// still empty (and on closed-and-drained). An already-passed deadline
  /// makes this a non-blocking try-pop.
  bool PopUntil(T* out, std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_until(lock, deadline,
                          [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    return PopLocked(&lock, out);
  }

  /// Stops admission: subsequent (and blocked) Push calls return false,
  /// consumers drain the remaining items and then get false. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// High-water mark of size() over the queue's lifetime (serving stats).
  size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_depth_;
  }

  /// Items ever admitted (serving observability: admissions counter).
  uint64_t total_pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_pushed_;
  }

 private:
  bool PopLocked(std::unique_lock<std::mutex>* lock, T* out) {
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    lock->unlock();
    not_full_.notify_one();
    return true;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  size_t max_depth_ = 0;
  uint64_t total_pushed_ = 0;
};

}  // namespace dust::serve

#endif  // DUST_SERVE_BOUNDED_QUEUE_H_
