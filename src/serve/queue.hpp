// A bounded multi-producer multi-consumer queue with close/drain semantics.
//
// This is the hand-off point of the EngineServer: client threads push jobs,
// worker threads pop them one at a time. Bounded capacity is load-bearing
// for serving: a full queue blocks producers (back-pressure) instead of
// growing without bound under overload.
//
// close() starts a graceful drain: producers are rejected from then on,
// consumers keep popping until the queue is empty and only then observe
// shutdown. A plain mutex + two condition variables implementation is
// deliberately chosen over a lock-free ring: the hand-off cost is small
// next to an engine run and is measured by bench/serve_throughput.cpp.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <deque>
#include <utility>
#include <vector>

/// The concurrent serving layer over lr90::Engine: bounded queueing,
/// pooled workspaces, and the EngineServer worker pool.
namespace lr90::serve {

/// Bounded MPMC queue of move-only items with close/drain semantics.
template <class T>
class BoundedQueue {
 public:
  /// A queue holding at most `capacity` items (>= 1 enforced).
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;             ///< not copyable
  BoundedQueue& operator=(const BoundedQueue&) = delete;  ///< not copyable

  /// Blocks while the queue is full; returns false iff the queue was
  /// closed. The item is moved from only on success -- on rejection it
  /// stays with the caller (so a serving layer can still answer it with
  /// a typed Status).
  bool push(T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    if (items_.size() > size_hwm_) size_hwm_ = items_.size();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when the queue is full or closed.
  bool try_push(T& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > size_hwm_) size_hwm_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available, moves it into `out` and returns
  /// true; returns false (leaving `out` untouched) once the queue is
  /// closed and drained. Items come out in push order. `out` is assigned
  /// after the lock is released, so whatever it held is destroyed outside
  /// the critical section producers contend on.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and fully drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    out = std::move(item);
    return true;
  }

  /// Rejects producers from now on; consumers drain the remaining items.
  /// Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Removes and returns every queued item without waiting (used by a
  /// non-graceful shutdown to fail pending jobs with a typed Status).
  std::vector<T> drain_now() {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out.reserve(items_.size());
      while (!items_.empty()) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
      }
    }
    not_full_.notify_all();
    not_empty_.notify_all();
    return out;
  }

  /// True once close() has been called.
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Instantaneous number of queued items (racy by nature; for telemetry).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// High-water mark of size() since construction (or the last
  /// reset_size_hwm()). Updated under the queue lock at push time, so a
  /// successful push is always reflected -- the depth signal behind the
  /// serving layer's queue_depth_hwm stat and the wire RETRY_AFTER hint.
  std::size_t size_hwm() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_hwm_;
  }

  /// Restarts the high-water tracking (ServerStats::reset_stats coverage).
  void reset_size_hwm() {
    std::lock_guard<std::mutex> lock(mu_);
    size_hwm_ = items_.size();
  }

  /// The fixed capacity bound.
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;          ///< maximum queued items
  mutable std::mutex mu_;               ///< guards items_ and closed_
  std::condition_variable not_empty_;   ///< consumers wait here
  std::condition_variable not_full_;    ///< producers wait here
  std::deque<T> items_;                 ///< FIFO payload
  std::size_t size_hwm_ = 0;            ///< deepest items_ seen at a push
  bool closed_ = false;                 ///< set once by close()
};

}  // namespace lr90::serve
