// Bounded multi-producer request queue with batched, non-blocking
// consumption.
//
// ServeEngine keeps one BoundedQueue per tenant. submit() pushes one
// request at a time from arbitrarily many client threads with try_push(),
// which refuses a full (or closed) queue immediately — overload becomes
// the typed Admission::QueueFull outcome instead of a blocked client
// thread, and a surge from a compromised fleet cannot exhaust server
// memory. Pool workers scan many queues and must never park on one:
// try_pop_batch() drains up to `max_items` requests so inference sees
// micro-batches, and drain_if() sheds expired requests at dequeue. No
// call ever waits; the pool parks on the engine's own condition variable.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/ensure.hpp"
#include "common/hot_path_annotations.hpp"
#include "common/thread_annotations.hpp"

namespace cal::serve {

/// Mutex-guarded bounded queue whose every operation returns at once.
/// close() makes later pushes fail; the items already queued still drain.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    CAL_ENSURE(capacity_ > 0, "queue capacity must be positive");
  }

  /// Enqueue one item (moves from `item`), or return false at once —
  /// leaving `item` untouched — when the queue is full or closed.
  CAL_HOT_PATH
  bool try_push(T&& item, std::size_t* depth_after = nullptr)
      CAL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    // Reported under the lock already held for the push: callers that
    // want the post-push depth (trace events) must not pay a second
    // mutex round-trip via size().
    if (depth_after != nullptr) *depth_after = items_.size();
    return true;
  }

  /// Dequeue up to `max_items` items in arrival order; empty when none
  /// are queued.
  CAL_HOT_PATH
  std::vector<T> try_pop_batch(std::size_t max_items) CAL_EXCLUDES(mu_) {
    CAL_ENSURE(max_items > 0, "try_pop_batch needs max_items > 0");
    std::vector<T> batch;
    MutexLock lock(mu_);
    const std::size_t n = std::min(max_items, items_.size());
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return batch;
  }

  /// Remove and return every queued item matching `pred`, preserving
  /// arrival order among survivors. The engine's deadline shedding uses
  /// this at dequeue time: expired requests leave the queue (and get
  /// their typed terminal result) without ever costing a replica
  /// checkout or a batch slot.
  template <typename Pred>
  std::vector<T> drain_if(Pred pred) CAL_EXCLUDES(mu_) {
    std::vector<T> removed;
    MutexLock lock(mu_);
    for (auto it = items_.begin(); it != items_.end();) {
      if (pred(*it)) {
        removed.push_back(std::move(*it));
        it = items_.erase(it);
      } else {
        ++it;
      }
    }
    return removed;
  }

  /// Resize the capacity in place (ServeEngine applies a hot-reloaded
  /// tenant's queue_capacity this way). Only future pushes are affected:
  /// items already queued beyond a shrunken capacity stay and drain
  /// normally — admitted requests are never dropped by a resize.
  void set_capacity(std::size_t capacity) CAL_EXCLUDES(mu_) {
    CAL_ENSURE(capacity > 0, "queue capacity must be positive");
    MutexLock lock(mu_);
    capacity_ = capacity;
  }

  /// Close the queue: future pushes fail; queued items still drain.
  void close() CAL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
  }

  std::size_t size() const CAL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_;
  std::deque<T> items_ CAL_GUARDED_BY(mu_);
  std::size_t capacity_ CAL_GUARDED_BY(mu_);
  bool closed_ CAL_GUARDED_BY(mu_) = false;
};

}  // namespace cal::serve
