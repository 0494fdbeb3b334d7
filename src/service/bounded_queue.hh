/**
 * @file
 * Bounded queue between whisperd's router and a tenant's absorber.
 *
 * A fixed-capacity deque guarded by one mutex and one condition
 * variable: producers never block (tryPush() refuses when the queue
 * is full, and the caller decides between backpressure and a
 * counted drop), consumers block when it is empty. close() wakes
 * every consumer; a closed queue drains its remaining elements
 * before pop() starts returning false, so no queued chunk is ever
 * lost.
 */

#ifndef WHISPER_SERVICE_BOUNDED_QUEUE_HH
#define WHISPER_SERVICE_BOUNDED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "util/logging.hh"

namespace whisper
{

/** Bounded MPMC queue with a non-blocking push. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : capacity_(capacity)
    {
        whisper_assert(capacity > 0);
    }

    /**
     * Non-blocking push: enqueue only when there is room right now.
     * @return false when the queue was full or closed (item
     * dropped) — the quota-enforcement primitive of the multi-tenant
     * router, where one tenant's backlog must never block the shared
     * ingest path.
     */
    bool
    tryPush(T item)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_ || items_.size() >= capacity_)
            return false;
        items_.push_back(std::move(item));
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Block until an element is available or the queue is closed and
     * drained. @return false only in the latter case.
     */
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notEmpty_.wait(lock,
                       [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /** No further pushes; consumers drain what remains. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        notEmpty_.notify_all();
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

  private:
    const size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace whisper

#endif // WHISPER_SERVICE_BOUNDED_QUEUE_HH
