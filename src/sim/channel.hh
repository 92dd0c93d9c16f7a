/**
 * @file
 * CHP-style communication channels.
 *
 * Channel<T> is a slack-zero rendezvous channel: a send and a receive
 * synchronize, and both parties resume after a configurable handshake
 * delay. This models a QDI four-phase handshake at the token level —
 * and, crucially for the paper's energy argument, a channel with no
 * pending communication costs nothing: no tokens, no events, no
 * switching activity.
 *
 * Fifo<T> is a slack-N buffered channel with multiple-waiter support,
 * used for the hardware event queue, the message-coprocessor FIFOs, and
 * bus arbitration.
 */

#ifndef SNAPLE_SIM_CHANNEL_HH
#define SNAPLE_SIM_CHANNEL_HH

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kernel.hh"
#include "logging.hh"
#include "ticks.hh"
#include "trace.hh"

namespace snaple::sim {

/**
 * Slack-zero rendezvous channel between exactly one sender process and
 * one receiver process (at a time).
 */
template <typename T>
class Channel
{
  public:
    /**
     * @param kernel owning kernel.
     * @param handshake_delay delay applied to both parties once the
     *        rendezvous completes (models the four-phase handshake).
     * @param name debug name.
     */
    Channel(Kernel &kernel, Tick handshake_delay = 0,
            std::string name = "chan")
        : kernel_(kernel), delay_(handshake_delay),
          trace_(kernel, std::move(name))
    {}

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Update the handshake delay (e.g. after a voltage change). */
    void setDelay(Tick d) { delay_ = d; }

    /** True if a sender is blocked on this channel (a probe, in CHP). */
    bool senderWaiting() const { return sender_.has_value(); }
    /** True if a receiver is blocked on this channel. */
    bool receiverWaiting() const { return receiver_.has_value(); }

    struct SendAwaiter
    {
        Channel &chan;
        T value;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            panicIf(chan.sender_.has_value(),
                    "two senders on channel ", chan.trace_.name());
            if (chan.receiver_) {
                auto r = *chan.receiver_;
                chan.receiver_.reset();
                *r.slot = std::move(value);
                Tick when = chan.kernel_.now() + chan.delay_;
                chan.kernel_.scheduleResume(when, r.h);
                chan.kernel_.scheduleResume(when, h);
                chan.trace_.emit(TraceEvent::ChanHandshake, chan.delay_);
            } else {
                chan.sender_ = PendingSend{h, std::move(value)};
                chan.trace_.emit(TraceEvent::ChanBlockSend);
            }
        }

        void await_resume() const noexcept {}
    };

    struct RecvAwaiter
    {
        Channel &chan;
        std::optional<T> slot;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            panicIf(chan.receiver_.has_value(),
                    "two receivers on channel ", chan.trace_.name());
            if (chan.sender_) {
                slot = std::move(chan.sender_->value);
                auto s = chan.sender_->h;
                chan.sender_.reset();
                Tick when = chan.kernel_.now() + chan.delay_;
                chan.kernel_.scheduleResume(when, s);
                chan.kernel_.scheduleResume(when, h);
                chan.trace_.emit(TraceEvent::ChanHandshake, chan.delay_);
            } else {
                chan.receiver_ = PendingRecv{h, &slot};
                chan.trace_.emit(TraceEvent::ChanBlockRecv);
            }
        }

        T
        await_resume()
        {
            panicIf(!slot.has_value(),
                    "recv resumed without a value on ", chan.trace_.name());
            return std::move(*slot);
        }
    };

    /** Send a value; suspends until a receiver takes it. */
    SendAwaiter send(T value) { return SendAwaiter{*this, std::move(value)}; }

    /** Receive a value; suspends until a sender offers one. */
    RecvAwaiter recv() { return RecvAwaiter{*this, std::nullopt}; }

  private:
    struct PendingSend
    {
        std::coroutine_handle<> h;
        T value;
    };

    struct PendingRecv
    {
        std::coroutine_handle<> h;
        std::optional<T> *slot;
    };

    Kernel &kernel_;
    Tick delay_;
    TraceScope trace_;
    std::optional<PendingSend> sender_;
    std::optional<PendingRecv> receiver_;
};

/**
 * Slack-N buffered channel with multiple-waiter support.
 *
 * Sends complete immediately while the buffer has room; receives
 * complete immediately while it is non-empty. Waiters on either side
 * queue in FIFO order. tryPush() supports drop-on-full producers (the
 * hardware event queue drops events when full, per the paper).
 *
 * The buffer is a ring of exactly `capacity` slots, allocated once at
 * construction, like the fixed-depth hardware FIFO it models; the
 * waiter queues allocate only once someone waits.
 */
template <typename T>
class Fifo
{
  public:
    Fifo(Kernel &kernel, std::size_t capacity, Tick op_delay = 0,
         std::string name = "fifo")
        : kernel_(kernel), capacity_(capacity), delay_(op_delay),
          trace_(kernel, std::move(name)),
          ring_(std::make_unique<T[]>(capacity))
    {
        panicIf(capacity_ == 0, "fifo capacity must be > 0: ",
                trace_.name());
    }

    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return capacity_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ >= capacity_; }
    void setDelay(Tick d) { delay_ = d; }

    /** Total values accepted (pushed or sent) over the run. */
    std::uint64_t accepted() const { return accepted_; }
    /** Values rejected by tryPush() because the buffer was full. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Non-blocking push from plain (non-coroutine) context.
     * @return true if accepted, false if the buffer was full.
     */
    bool
    tryPush(T value)
    {
        if (full() && recvWaiters_.empty()) {
            ++dropped_;
            trace_.emit(TraceEvent::FifoDrop, count_);
            return false;
        }
        ++accepted_;
        deposit(std::move(value));
        return true;
    }

    struct SendAwaiter
    {
        Fifo &fifo;
        T value;

        bool
        await_ready()
        {
            if (!fifo.full()) {
                ++fifo.accepted_;
                fifo.deposit(std::move(value));
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            fifo.trace_.emit(TraceEvent::FifoBlockSend, fifo.count_);
            fifo.sendWaiters_.push_back({h, std::move(value)});
        }

        void await_resume() const noexcept {}
    };

    struct RecvAwaiter
    {
        Fifo &fifo;
        std::optional<T> slot;

        bool
        await_ready()
        {
            if (fifo.count_ != 0) {
                slot = fifo.popFront();
                fifo.trace_.emit(TraceEvent::FifoDequeue, fifo.count_);
                fifo.refill();
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            fifo.trace_.emit(TraceEvent::FifoBlockRecv);
            fifo.recvWaiters_.push_back({h, &slot});
        }

        T
        await_resume()
        {
            panicIf(!slot.has_value(), "fifo recv resumed without a value on ",
                    fifo.trace_.name());
            return std::move(*slot);
        }
    };

    /** Send; suspends while the buffer is full. */
    SendAwaiter send(T value) { return SendAwaiter{*this, std::move(value)}; }

    /** Receive; suspends while the buffer is empty. */
    RecvAwaiter recv() { return RecvAwaiter{*this, std::nullopt}; }

    /** @name Snapshot support (src/snapshot/)
     * Buffer contents (oldest first) and accept/drop counters, saved
     * and poked back verbatim. Waiter queues are never serialized:
     * restored processes re-register by re-awaiting, and checkpoint
     * eligibility (docs/CHECKPOINT.md) guarantees no deposit/refill
     * wake-up event is in flight — a parked receiver therefore
     * implies an empty buffer and a parked sender a full one. */
    ///@{
    std::vector<T>
    bufferState() const
    {
        std::vector<T> out;
        out.reserve(count_);
        for (std::size_t i = 0, at = head_; i < count_; ++i) {
            out.push_back(ring_[at]);
            at = next(at);
        }
        return out;
    }
    void
    restoreState(std::span<const T> buffer, std::uint64_t accepted,
                 std::uint64_t dropped)
    {
        panicIf(buffer.size() > capacity_, "fifo restore overflows ",
                trace_.name());
        std::copy(buffer.begin(), buffer.end(), ring_.get());
        head_ = 0;
        count_ = buffer.size();
        accepted_ = accepted;
        dropped_ = dropped;
    }
    ///@}

  private:
    struct SendWaiter
    {
        std::coroutine_handle<> h;
        T value;
    };

    struct RecvWaiter
    {
        std::coroutine_handle<> h;
        std::optional<T> *slot;
    };

    /** The ring slot after @p i (a compare: the fetch queue runs this
     *  once per instruction). */
    std::size_t
    next(std::size_t i) const
    {
        return ++i == capacity_ ? 0 : i;
    }

    void
    pushBack(T value)
    {
        std::size_t tail = head_ + count_;
        if (tail >= capacity_)
            tail -= capacity_;
        ring_[tail] = std::move(value);
        ++count_;
    }

    T
    popFront()
    {
        T v = std::move(ring_[head_]);
        head_ = next(head_);
        --count_;
        return v;
    }

    /**
     * Hand a new value either directly to the oldest waiting receiver
     * (after the op delay — this is the paper's "token propagates
     * through the event queue" wake-up path) or into the buffer.
     */
    void
    deposit(T value)
    {
        if (!recvWaiters_.empty()) {
            RecvWaiter w = recvWaiters_.front();
            recvWaiters_.erase(recvWaiters_.begin());
            *w.slot = std::move(value);
            kernel_.scheduleResume(kernel_.now() + delay_, w.h);
            trace_.emit(TraceEvent::FifoWakeup, delay_);
        } else {
            pushBack(std::move(value));
            trace_.emit(TraceEvent::FifoEnqueue, count_);
        }
    }

    /** After a pop, admit the oldest blocked sender, if any. */
    void
    refill()
    {
        if (!sendWaiters_.empty() && !full()) {
            SendWaiter w = std::move(sendWaiters_.front());
            sendWaiters_.erase(sendWaiters_.begin());
            ++accepted_;
            pushBack(std::move(w.value));
            kernel_.scheduleResume(kernel_.now() + delay_, w.h);
            trace_.emit(TraceEvent::FifoEnqueue, count_);
        }
    }

    Kernel &kernel_;
    std::size_t capacity_;
    Tick delay_;
    TraceScope trace_;
    std::unique_ptr<T[]> ring_;
    std::size_t head_ = 0;  ///< ring slot of the oldest value
    std::size_t count_ = 0; ///< values buffered
    /// Parked waiters, oldest first. Each production FIFO has one
    /// sending and one receiving process, so these hold a couple of
    /// entries at most and allocate nothing until someone waits.
    std::vector<SendWaiter> sendWaiters_;
    std::vector<RecvWaiter> recvWaiters_;
    std::uint64_t accepted_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace snaple::sim

#endif // SNAPLE_SIM_CHANNEL_HH
