#ifndef SF_STREAM_CHUNK_QUEUE_HPP
#define SF_STREAM_CHUNK_QUEUE_HPP

/**
 * @file
 * The one bounded MPMC request queue of the tree, with backpressure
 * and two service classes.
 *
 * Sessions push per-channel decision requests into it; the worker
 * threads of a stream::DecisionPool drain it in batches.  The bound is
 * the backpressure mechanism: when classification falls behind chunk
 * arrival, push() blocks the event source instead of letting requests
 * pile up without limit — the software analogue of the accelerator's
 * fixed number of in-flight tiles.
 *
 * Requests split into two service classes:
 *
 *  - Stat: clinical/STAT sessions — a worker dispatch always prefers
 *    this class when it has work queued;
 *  - Research: batch/surveillance sessions — preempted by Stat, but
 *    never starved: after @p statBurst consecutive Stat dispatches a
 *    queued Research dispatch is served regardless, so Research holds
 *    at least a 1/(statBurst+1) dispatch share under full contention.
 *
 * Dispatches are class-pure (one popBatch never mixes classes) so the
 * per-class latency split stays measurable.  Admission control is per
 * session: each registered session may hold at most @p quota queued
 * requests (0 = unlimited); a push over quota or over total capacity
 * blocks — throttling the pushing session's capture clock in wall
 * time — and never drops.  Blocking waits are woken by close().
 *
 * A thread that would otherwise block on the queue's work — a
 * session's event loop facing a full queue or awaiting a decision —
 * may fold queued work itself: tryPush() and tryPopBatch() never
 * block, and tryPopBatch() takes nothing while a worker is idle.
 *
 * BoundedQueue is the single-class, single-session front over the
 * same queue: a plain blocking FIFO.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace sf::stream {

/** Service class of a session sharing a decision pool. */
enum class QosClass : std::size_t {
    Stat = 0,     //!< clinical STAT: preferred at every dispatch
    Research = 1, //!< batch work: preempted, but starvation-bounded
};

inline constexpr std::size_t kQosClasses = 2;

/** Human-readable class name (stable; used in snapshots and logs). */
inline const char *
qosClassName(QosClass cls)
{
    return cls == QosClass::Stat ? "stat" : "research";
}

/**
 * Blocking bounded FIFO with two service classes and per-session
 * admission quotas.  push blocks under backpressure and returns false
 * only when closed; popBatch drains up to a batch and returns false
 * when closed and empty; dispatches follow the Stat-over-Research
 * policy above.  tryPush and tryPopBatch are their non-blocking
 * twins.
 */
template <typename T>
class QosBoundedQueue
{
  public:
    /** Outcome of a non-blocking push. */
    enum class PushResult {
        Pushed,  //!< enqueued
        Refused, //!< at capacity or over quota; nothing enqueued
        Closed,  //!< queue closed; nothing enqueued
    };

    /**
     * @param capacity  total items held across both classes; > 0
     * @param statBurst consecutive Stat dispatches after which a
     *        queued Research dispatch must be served; >= 1 (0 would
     *        invert the priority into Research-always-first)
     */
    QosBoundedQueue(std::size_t capacity, std::size_t statBurst)
        : capacity_(capacity), statBurst_(statBurst)
    {
        if (capacity_ == 0)
            fatal("QosBoundedQueue capacity must be positive");
        if (statBurst_ == 0)
            fatal("QosBoundedQueue statBurst must be >= 1 (0 would "
                  "starve the Stat class instead of bounding Research "
                  "starvation)");
    }

    QosBoundedQueue(const QosBoundedQueue &) = delete;
    QosBoundedQueue &operator=(const QosBoundedQueue &) = delete;

    /**
     * Register a session and return its id (the session to push
     * with).  @p quota caps the session's queued requests (admission
     * control); 0 means only the shared capacity bounds it.
     */
    std::uint32_t
    registerSession(QosClass cls, std::size_t quota)
    {
        std::lock_guard lock(mutex_);
        sessions_.push_back(SessionSlot{cls, quota, 0});
        return std::uint32_t(sessions_.size() - 1);
    }

    /**
     * Enqueue @p item for @p session, blocking while the queue is at
     * capacity or the session is over its admission quota.  The block
     * is the backpressure: the session's capture clock stalls in wall
     * time (its virtual-time log is unaffected) and no chunk is ever
     * dropped.  A push that blocks counts one stall, unless
     * @p stalled says a refused tryPush() of the same item already
     * counted it.  Returns false if the queue was closed.
     */
    bool
    push(std::uint32_t session, T item, bool stalled = false)
    {
        std::unique_lock lock(mutex_);
        SessionSlot &slot = slotLocked(session);
        const auto admitted_or_closed = [&] {
            return closed_ || admittedLocked(slot);
        };
        if (!admitted_or_closed() && !stalled)
            countStallLocked(slot);
        notFull_.wait(lock, admitted_or_closed);
        if (closed_)
            return false;
        enqueueLocked(session, slot, std::move(item));
        lock.unlock();
        // notify_all, not notify_one: consumers wait on notEmpty_
        // with two different predicates (arrival wait: any work;
        // linger wait: batch full).  A single notification could land
        // on a lingering worker whose fill predicate is still false —
        // it would swallow the wakeup and leave an idle worker asleep
        // for up to the full linger deadline.
        notEmpty_.notify_all();
        return true;
    }

    /**
     * Non-blocking push: enqueue @p item (moved from only when
     * Pushed) if @p session is admitted right now.  A refusal is a
     * backpressure stall, counted once per item: pass @p stalled =
     * true on every retry after the first refusal, and to the
     * blocking push() that may end the retries, so a push that
     * helped before it entered the queue counts exactly one stall.
     */
    PushResult
    tryPush(std::uint32_t session, T &item, bool stalled)
    {
        std::unique_lock lock(mutex_);
        SessionSlot &slot = slotLocked(session);
        if (closed_)
            return PushResult::Closed;
        if (!admittedLocked(slot)) {
            if (!stalled)
                countStallLocked(slot);
            return PushResult::Refused;
        }
        enqueueLocked(session, slot, std::move(item));
        lock.unlock();
        notEmpty_.notify_all(); // see push()
        return PushResult::Pushed;
    }

    /**
     * Dequeue between 1 and @p max_items items of ONE class into
     * @p out (appended), waiting until work is available.  Stat is
     * preferred; Research is served when Stat is empty or when
     * @p statBurst consecutive Stat dispatches have already run while
     * Research waited.  @p served (optional) reports the class
     * dispatched.  Returns false when the queue is closed and drained.
     *
     * With no @p linger only items already queued are taken — a lone
     * request is dispatched immediately while a backlog is drained
     * @p max_items at a time.  A positive @p linger bounds a short
     * extra wait for the batch to FILL once the first item is
     * available: sessions re-queue their requests within microseconds
     * of a completed dispatch, and popping eagerly would shred those
     * co-arriving requests into ragged serial folds.  The fill target
     * is the depth of the class this dispatch would serve (dispatches
     * are class-pure).  The wait is deadline-bounded and cut short by
     * close(), a full batch, or the deadline — never by-passed work:
     * whatever is queued at expiry is dispatched.  If a concurrent
     * worker drains the queue while the linger holds the mutex
     * released, the call goes back to waiting for work; false means
     * closed-and-drained, never a transiently empty open queue.
     */
    bool
    popBatch(std::vector<T> &out, std::size_t max_items,
             QosClass *served = nullptr,
             std::chrono::microseconds linger = {})
    {
        if (max_items == 0)
            fatal("QosBoundedQueue batch size must be positive");
        std::unique_lock lock(mutex_);
        // Every moment another thread can observe this consumer
        // between here and the take below, it waits for work: idle.
        ++idleConsumers_;
        for (;;) {
            notEmpty_.wait(lock,
                           [&] { return closed_ || total_ > 0; });
            // Linger on the depth of the class THIS dispatch would
            // serve, not total_: dispatches are class-pure, so in a
            // mixed fleet the other class filling up cannot fill this
            // batch.
            if (linger.count() > 0 && !closed_ && total_ > 0 &&
                dispatchDepthLocked() < max_items)
                notEmpty_.wait_for(lock, linger, [&] {
                    return closed_ ||
                           dispatchDepthLocked() >= max_items;
                });
            if (total_ > 0)
                break;
            if (closed_) {
                --idleConsumers_;
                return false; // closed and drained
            }
            // The linger wait released the mutex and a concurrent
            // worker drained the still-open queue: go back to waiting
            // for new work — returning false here would permanently
            // retire this worker's dispatch loop.
        }

        --idleConsumers_;
        takeLocked(out, max_items, served);
        lock.unlock();
        notFull_.notify_all();
        return true;
    }

    /**
     * Non-blocking pop for a thread that would otherwise block on
     * this queue's work: take up to @p batch items of the class
     * popBatch() would serve (same choice, same starvation streak),
     * but nothing while a consumer waits in popBatch() — an idle
     * worker folds them instead.  Returns whether it took any.
     */
    bool
    tryPopBatch(std::vector<T> &out, std::size_t batch,
                QosClass *served = nullptr)
    {
        if (batch == 0)
            fatal("QosBoundedQueue batch size must be positive");
        std::unique_lock lock(mutex_);
        if (idleConsumers_ > 0 || total_ == 0)
            return false;
        takeLocked(out, batch, served);
        lock.unlock();
        notFull_.notify_all();
        return true;
    }

    /**
     * Close the queue: blocked pushers wake and see false, consumers
     * drain what is left and then see false.
     */
    void
    close()
    {
        {
            std::lock_guard lock(mutex_);
            closed_ = true;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    /** Queued requests of @p session (racy outside quiescence). */
    std::size_t
    depth(std::uint32_t session) const
    {
        std::lock_guard lock(mutex_);
        return session < sessions_.size() ? sessions_[session].depth
                                          : 0;
    }

    /** Pushes of @p session refused room (backpressure stalls),
        one per item however often it retried. */
    std::uint64_t
    stalls(std::uint32_t session) const
    {
        std::lock_guard lock(mutex_);
        return session < sessions_.size() ? sessions_[session].stalls
                                          : 0;
    }

    /** Total backpressure stalls, across every session. */
    std::uint64_t
    totalStalls() const
    {
        std::lock_guard lock(mutex_);
        return stalls_;
    }

    /** Items currently queued across both classes (racy; for tests). */
    std::size_t
    size() const
    {
        std::lock_guard lock(mutex_);
        return total_;
    }

    /** Maximum number of items the queue will hold. */
    std::size_t capacity() const { return capacity_; }

  private:
    struct SessionSlot
    {
        QosClass cls = QosClass::Research;
        std::size_t quota = 0;     //!< 0 = unlimited
        std::size_t depth = 0;     //!< queued requests right now
        std::uint64_t stalls = 0;  //!< pushes refused room
    };

    /** A queued item and the session that pushed it. */
    struct Entry
    {
        std::uint32_t session = 0;
        T item;
    };

    /** The slot of a registered @p session; caller holds mutex_. */
    SessionSlot &
    slotLocked(std::uint32_t session)
    {
        if (session >= sessions_.size())
            fatal("QosBoundedQueue push from unregistered session %u",
                  unsigned(session));
        return sessions_[session];
    }

    /** Room in the queue and in @p slot's quota; caller holds mutex_. */
    bool
    admittedLocked(const SessionSlot &slot) const
    {
        return total_ < capacity_ &&
               (slot.quota == 0 || slot.depth < slot.quota);
    }

    /** Backpressure stall: a push found no room.  Wall-clock-only
        observability — a storm that saturates the queue shows up
        here, never as a dropped chunk.  Caller holds mutex_. */
    void
    countStallLocked(SessionSlot &slot)
    {
        ++slot.stalls;
        ++stalls_;
    }

    /** Append @p item to @p session's class; caller holds mutex_ and
        checked admittedLocked(). */
    void
    enqueueLocked(std::uint32_t session, SessionSlot &slot, T &&item)
    {
        items_[std::size_t(slot.cls)].push_back(
            Entry{session, std::move(item)});
        ++slot.depth;
        ++total_;
        if (total_ > capacity_)
            panic("QosBoundedQueue overfilled: %zu items in a queue "
                  "of capacity %zu (lost wakeup or predicate bug)",
                  total_, capacity_);
    }

    /** Take up to @p max_items of the class a dispatch serves now
        into @p out and advance the starvation streak; caller holds
        mutex_ and saw total_ > 0. */
    void
    takeLocked(std::vector<T> &out, std::size_t max_items,
               QosClass *served)
    {
        const QosClass cls = dispatchClassLocked();
        if (cls == QosClass::Stat)
            ++statStreak_;
        else
            statStreak_ = 0;

        auto &queue = items_[std::size_t(cls)];
        const std::size_t take = std::min(max_items, queue.size());
        for (std::size_t i = 0; i < take; ++i) {
            Entry &entry = queue.front();
            SessionSlot &slot = sessions_[entry.session];
            if (slot.depth == 0)
                panic("QosBoundedQueue depth underflow for session "
                      "%u", unsigned(entry.session));
            --slot.depth;
            out.push_back(std::move(entry.item));
            queue.pop_front();
        }
        total_ -= take;
        if (served != nullptr)
            *served = cls;
    }

    /** Class a dispatch entered right now would serve — the same
        Stat-first / starvation-bound policy popBatch applies, minus
        the streak update.  Caller holds mutex_; with both classes
        empty it degenerates to Research (depth 0). */
    QosClass
    dispatchClassLocked() const
    {
        const auto &stat = items_[std::size_t(QosClass::Stat)];
        const auto &research = items_[std::size_t(QosClass::Research)];
        if (stat.empty())
            return QosClass::Research;
        if (!research.empty() && statStreak_ >= statBurst_)
            return QosClass::Research; // starvation bound
        return QosClass::Stat;
    }

    /** Queued depth of the class dispatchClassLocked() selects. */
    std::size_t
    dispatchDepthLocked() const
    {
        return items_[std::size_t(dispatchClassLocked())].size();
    }

    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::array<std::deque<Entry>, kQosClasses> items_;
    std::vector<SessionSlot> sessions_;
    std::size_t capacity_ = 0;
    std::size_t statBurst_ = 1;
    std::size_t statStreak_ = 0; //!< consecutive Stat dispatches
    std::size_t total_ = 0;
    std::size_t idleConsumers_ = 0; //!< consumers waiting in popBatch
    std::uint64_t stalls_ = 0;   //!< pushes refused room, all sessions
    bool closed_ = false;
};

/**
 * Plain blocking bounded FIFO: one session of one class, no quota —
 * QosBoundedQueue with the QoS policy reduced to arrival order.
 * close(), size() and capacity() are the QoS queue's.
 */
template <typename T>
class BoundedQueue : private QosBoundedQueue<T>
{
    using Base = QosBoundedQueue<T>;

  public:
    /** @param cap maximum items held; must be positive. */
    explicit BoundedQueue(std::size_t cap) : Base(cap, 1)
    {
        Base::registerSession(QosClass::Stat, 0);
    }

    /**
     * Enqueue @p item, blocking while the queue is full
     * (backpressure).  Returns false if the queue was closed.
     */
    bool push(T item) { return Base::push(0, std::move(item)); }

    /**
     * Dequeue between 1 and @p max_items items into @p out (appended),
     * waiting until at least one is available.  Only items already
     * queued are taken.  Returns false when the queue is closed and
     * drained.
     */
    bool
    popBatch(std::vector<T> &out, std::size_t max_items)
    {
        return Base::popBatch(out, max_items);
    }

    /** Dequeue a single item; false when closed and drained. */
    bool
    pop(T &out)
    {
        std::vector<T> batch;
        if (!popBatch(batch, 1))
            return false;
        out = std::move(batch.front());
        return true;
    }

    using Base::capacity;
    using Base::close;
    using Base::size;
};

} // namespace sf::stream

#endif // SF_STREAM_CHUNK_QUEUE_HPP
