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

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <utility>

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
        : kernel_(kernel), delay_(handshake_delay), name_(std::move(name)),
          trace_(kernel, name_)
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
                    "two senders on channel ", chan.name_);
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
                    "two receivers on channel ", chan.name_);
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
                    "recv resumed without a value on ", chan.name_);
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
    std::string name_;
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
 */
template <typename T>
class Fifo
{
  public:
    Fifo(Kernel &kernel, std::size_t capacity, Tick op_delay = 0,
         std::string name = "fifo")
        : kernel_(kernel), capacity_(capacity), delay_(op_delay),
          name_(std::move(name)), trace_(kernel, name_)
    {
        panicIf(capacity_ == 0, "fifo capacity must be > 0: ", name_);
    }

    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    std::size_t size() const { return buffer_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool empty() const { return buffer_.empty(); }
    bool full() const { return buffer_.size() >= capacity_; }
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
            trace_.emit(TraceEvent::FifoDrop, buffer_.size());
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
            fifo.trace_.emit(TraceEvent::FifoBlockSend,
                             fifo.buffer_.size());
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
            if (!fifo.buffer_.empty()) {
                slot = std::move(fifo.buffer_.front());
                fifo.buffer_.pop_front();
                fifo.trace_.emit(TraceEvent::FifoDequeue,
                                 fifo.buffer_.size());
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
            panicIf(!slot.has_value(),
                    "fifo recv resumed without a value on ", fifo.name_);
            return std::move(*slot);
        }
    };

    /** Send; suspends while the buffer is full. */
    SendAwaiter send(T value) { return SendAwaiter{*this, std::move(value)}; }

    /** Receive; suspends while the buffer is empty. */
    RecvAwaiter recv() { return RecvAwaiter{*this, std::nullopt}; }

    /** @name Snapshot support (src/snapshot/)
     * Buffer contents and accept/drop counters, saved and poked back
     * verbatim. Waiter queues are never serialized: restored
     * processes re-register by re-awaiting, and checkpoint
     * eligibility (docs/CHECKPOINT.md) guarantees no deposit/refill
     * wake-up event is in flight — a parked receiver therefore
     * implies an empty buffer and a parked sender a full one. */
    ///@{
    const std::deque<T> &bufferState() const { return buffer_; }
    void
    restoreState(std::deque<T> buffer, std::uint64_t accepted,
                 std::uint64_t dropped)
    {
        panicIf(buffer.size() > capacity_,
                "fifo restore overflows ", name_);
        buffer_ = std::move(buffer);
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
            recvWaiters_.pop_front();
            *w.slot = std::move(value);
            kernel_.scheduleResume(kernel_.now() + delay_, w.h);
            trace_.emit(TraceEvent::FifoWakeup, delay_);
        } else {
            buffer_.push_back(std::move(value));
            trace_.emit(TraceEvent::FifoEnqueue, buffer_.size());
        }
    }

    /** After a pop, admit the oldest blocked sender, if any. */
    void
    refill()
    {
        if (!sendWaiters_.empty() && !full()) {
            SendWaiter w = std::move(sendWaiters_.front());
            sendWaiters_.pop_front();
            ++accepted_;
            buffer_.push_back(std::move(w.value));
            kernel_.scheduleResume(kernel_.now() + delay_, w.h);
            trace_.emit(TraceEvent::FifoEnqueue, buffer_.size());
        }
    }

    Kernel &kernel_;
    std::size_t capacity_;
    Tick delay_;
    std::string name_;
    TraceScope trace_;
    std::deque<T> buffer_;
    std::deque<SendWaiter> sendWaiters_;
    std::deque<RecvWaiter> recvWaiters_;
    std::uint64_t accepted_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace snaple::sim

#endif // SNAPLE_SIM_CHANNEL_HH
