// Deadline-aware MPMC admission scheduler: the server's load-shedding
// point. Producers (the I/O thread) never block — admission fails
// immediately when the queue is full, the adaptive limit is reached, or
// the request's deadline has already elapsed (doomed work is refused at
// the door instead of queued). Consumers (workers) block until work
// arrives or the queue is closed for shutdown.
//
// Ordering is earliest-deadline-first: the request closest to missing
// its deadline is always dequeued next; requests without a deadline sort
// last among themselves in FIFO order (a monotone sequence number breaks
// ties, so equal deadlines are also FIFO).
//
// Dequeue additionally applies the CoDel variant for request queues
// ("Fail at Scale", ACM Queue 13(8)): while the queue has stayed
// non-empty for a full `codel_interval`, the tolerated sojourn shrinks
// from `codel_interval` to `codel_target`; an item that waited longer is
// handed back flagged `shed` so the worker can fail it fast instead of
// serving stale work. With `codel_target` zero the check is off and the
// queue only orders and bounds.
#ifndef KSPIN_SERVER_ADMISSION_QUEUE_H_
#define KSPIN_SERVER_ADMISSION_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace kspin::server {

/// Why TryPush refused a request. Distinguishing the causes matters for
/// metrics and for the client-facing status (expired requests get
/// DEADLINE_EXCEEDED, everything else OVERLOADED).
enum class AdmissionResult {
  kAdmitted,
  kExpired,    ///< Deadline elapsed before admission; never queued.
  kLimited,    ///< Over the adaptive (soft) limit, below the hard bound.
  kQueueFull,  ///< Over the hard capacity bound.
  kClosed,     ///< Shutting down.
};

template <typename T>
class AdmissionQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// A dequeued item plus its scheduling verdict.
  struct Popped {
    T item;
    /// Time spent queued (push to pop).
    std::chrono::microseconds sojourn{0};
    /// CoDel verdict: the item overstayed the tolerated sojourn while
    /// the queue was congested; the caller should fail it fast.
    bool shed = false;
  };

  /// `capacity` 0 means "admit nothing" (every TryPush fails) — useful
  /// to force the overload path in tests. `codel_target` 0 disables the
  /// sojourn check.
  explicit AdmissionQueue(std::size_t capacity,
                          std::chrono::milliseconds codel_target =
                              std::chrono::milliseconds{0},
                          std::chrono::milliseconds codel_interval =
                              std::chrono::milliseconds{100})
      : capacity_(capacity),
        codel_target_(codel_target),
        codel_interval_(codel_interval),
        limit_(capacity) {}

  /// Non-blocking admission. `deadline` uses Clock::time_point{} for
  /// "none"; an already-expired deadline is rejected without queueing.
  /// `item` is moved from only when it is admitted.
  AdmissionResult TryPush(T&& item, Clock::time_point deadline,
                          Clock::time_point now = Clock::now()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return AdmissionResult::kClosed;
      if (deadline != Clock::time_point{} && deadline <= now) {
        return AdmissionResult::kExpired;
      }
      if (entries_.size() >= capacity_) return AdmissionResult::kQueueFull;
      if (entries_.size() >= std::min(limit_, capacity_)) {
        return AdmissionResult::kLimited;
      }
      if (entries_.empty()) last_empty_ = now;
      entries_.push_back(Entry{std::move(item), EffectiveDeadline(deadline),
                               now, next_seq_++});
      std::push_heap(entries_.begin(), entries_.end(), Later);
    }
    cv_.notify_one();
    return AdmissionResult::kAdmitted;
  }

  /// Blocks until an item is available or the queue is closed. Returns
  /// nullopt only when closed *and* drained — pending work is always
  /// delivered, which is what makes shutdown graceful. The earliest
  /// deadline pops first; `shed` carries the CoDel verdict.
  std::optional<Popped> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !entries_.empty(); });
    if (entries_.empty()) return std::nullopt;
    const Clock::time_point now = Clock::now();
    std::pop_heap(entries_.begin(), entries_.end(), Later);
    Entry entry = std::move(entries_.back());
    entries_.pop_back();
    Popped popped;
    popped.item = std::move(entry.item);
    popped.sojourn = std::chrono::duration_cast<std::chrono::microseconds>(
        now - entry.enqueued);
    if (codel_target_.count() > 0) {
      // Congested = the queue never went empty within the last interval;
      // only then does the tolerated sojourn shrink to the target.
      const bool congested = now - last_empty_ >= codel_interval_;
      const auto allowed = congested ? codel_target_ : codel_interval_;
      popped.shed = popped.sojourn > allowed;
    }
    if (entries_.empty()) last_empty_ = now;
    return popped;
  }

  /// Rejects future pushes and wakes all poppers; queued items still
  /// drain through Pop().
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Adaptive admission bound (the AIMD controller's knob): admission
  /// fails with kLimited once the queue holds `limit` items. Clamped to
  /// [1, capacity]; the hard capacity still applies.
  void SetLimit(std::size_t limit) {
    std::lock_guard<std::mutex> lock(mutex_);
    limit_ = std::clamp<std::size_t>(limit, 1, std::max<std::size_t>(
                                                    capacity_, 1));
  }

  std::size_t Limit() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::min(limit_, capacity_);
  }

  std::size_t Size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  struct Entry {
    T item;
    Clock::time_point deadline;  ///< Effective; max() when none.
    Clock::time_point enqueued;
    std::uint64_t seq;
  };

  /// No deadline sorts after every real deadline.
  static Clock::time_point EffectiveDeadline(Clock::time_point deadline) {
    return deadline == Clock::time_point{} ? Clock::time_point::max()
                                           : deadline;
  }

  /// Max-heap comparator: true when `a` should pop *later* than `b`
  /// (later deadline, or same deadline but admitted more recently).
  static bool Later(const Entry& a, const Entry& b) {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.seq > b.seq;
  }

  const std::size_t capacity_;
  const std::chrono::milliseconds codel_target_;
  const std::chrono::milliseconds codel_interval_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;  ///< Binary heap ordered by Later.
  std::size_t limit_;           ///< Soft bound; see SetLimit().
  std::uint64_t next_seq_ = 0;
  Clock::time_point last_empty_{};  ///< CoDel congestion reference.
  bool closed_ = false;
};

}  // namespace kspin::server

#endif  // KSPIN_SERVER_ADMISSION_QUEUE_H_
