/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel owns a time-ordered event list and the set of free-running
 * hardware processes (coroutines). Events at equal ticks fire in
 * insertion order, which makes every simulation bit-reproducible.
 *
 * The scheduling hot path is allocation-free in steady state: pending
 * events are 32-byte POD nodes in a hand-rolled binary heap
 * (sim/event_heap.hh), and callback captures live in a pooled arena of
 * small-buffer EventFn slots (sim/callback.hh) that is recycled through
 * a free list. Once the heap and arena have grown to the peak number
 * of simultaneously pending events, schedule/scheduleAfter/
 * scheduleResume and dispatch never touch the allocator and never copy
 * a callback — the popped top is moved, not copied.
 */

#ifndef SNAPLE_SIM_KERNEL_HH
#define SNAPLE_SIM_KERNEL_HH

#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "callback.hh"
#include "event_heap.hh"
#include "logging.hh"
#include "task.hh"
#include "ticks.hh"

namespace snaple::sim {

class TraceSink;

/**
 * The discrete-event simulation kernel.
 *
 * Usage: construct, spawn() processes, then run()/runFor()/runUntil().
 * Processes interact with simulated time through awaitables: the
 * kernel's delay(), and channel send/recv operations.
 */
class Kernel
{
  public:
    Kernel() = default;
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;
    ~Kernel() = default;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick (>= now).
     *
     * Accepts any callable with signature void(); the capture must fit
     * EventFn's inline buffer (checked at compile time), which is what
     * keeps this path allocation-free.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        panicIf(when < now_, "scheduling event in the past");
        const std::uint32_t slot = allocSlot();
        arena_[slot] = EventFn(std::forward<F>(fn));
        events_.push(EventNode{when, seq_++, {}, slot});
    }

    /** Schedule a callback a relative number of ticks in the future. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /** Schedule the resumption of a suspended coroutine. */
    void
    scheduleResume(Tick when, std::coroutine_handle<> h)
    {
        panicIf(when < now_, "scheduling resume in the past");
        events_.push(EventNode{when, seq_++, h, kNoSlot});
    }

    /**
     * Wake-up point for a timed await: resume @p h at @p when. Returns
     * what the awaiter's await_suspend() returns — true if the wake-up
     * was scheduled (the caller suspends), false if the caller may
     * continue inline because that wake-up is the kernel's next event.
     *
     * The inline path is taken only while run() is active, stop() has
     * not been requested, @p when <= run()'s limit, and @p when is
     * strictly earlier than every pending event. Then the scheduled
     * event would be the unique minimum of (tick, seq) — a pending
     * event at the same tick has a lower seq and must fire first — so
     * run() would pop it next, with no stop or error check that could
     * intervene. Taking it inline advances now(), the sequence counter
     * and eventsDispatched() exactly as the push and pop would have,
     * so dispatch order, lastScheduledSeq() and snapshots are
     * unchanged.
     *
     * This relies on the suspended coroutine having been resumed by
     * run()'s dispatch, or by an event that does nothing after the
     * resume (TickGate::open()): host code left to run after the
     * resume would otherwise run at a later now().
     */
    bool
    suspendUntil(Tick when, std::coroutine_handle<> h)
    {
        if (running_ && !stopped_ && when <= until_ &&
            (events_.empty() || when < events_.top().when)) {
            panicIf(when < now_, "scheduling resume in the past");
            now_ = when;
            ++seq_;
            ++dispatched_;
            ++inlineWakeups_;
            return false;
        }
        scheduleResume(when, h);
        return true;
    }

    /**
     * Adopt and start a free-running process. The kernel owns the
     * coroutine frame for the rest of its life.
     */
    void
    spawn(Co<void> proc, std::string name = "proc")
    {
        panicIf(!proc.valid(), "spawning an invalid process");
        proc.handle_.promise().rootKernel = this;
        processes_.push_back(Process{std::move(proc), std::move(name)});
        // Start it at the current time, in event order.
        scheduleResume(now_, processes_.back().co.handle_);
    }

    /** Awaitable: suspend the calling process for @p delta ticks. */
    struct DelayAwaiter
    {
        Kernel &kernel;
        Tick delta;

        // Never ready up front: even a zero delay yields to events
        // already pending at the same tick. suspendUntil() continues
        // inline only when the wake-up is the kernel's next event.
        bool await_ready() const noexcept { return false; }

        bool
        await_suspend(std::coroutine_handle<> h) const
        {
            return kernel.suspendUntil(kernel.now_ + delta, h);
        }

        void await_resume() const noexcept {}
    };

    /** Suspend the calling process for @p delta ticks. */
    DelayAwaiter delay(Tick delta) { return DelayAwaiter{*this, delta}; }

    /**
     * Run until the event list drains, stop() is called, or simulated
     * time would pass @p until.
     *
     * Time-advance contract:
     *  - If the time limit is hit, now() == until and false is returned.
     *  - If the queue drains under an explicit limit (until != kMaxTick,
     *    which includes every runFor() call), now() advances to until —
     *    so callers can interleave runFor() with external stimulus at
     *    predictable times, and repeated runFor() after a drain keeps
     *    accumulating time. runFor(0) is a no-op that returns true.
     *  - If the queue drains with no explicit limit (a bare run()),
     *    now() stays at the tick of the last dispatched event: "run to
     *    completion" ends at the moment the model went quiescent, not
     *    at the end of time.
     *
     * @return true if stopped or drained before @p until, false if the
     *         time limit was the reason for returning.
     */
    bool
    run(Tick until = kMaxTick)
    {
        panicIf(running_, "Kernel::run entered while already running");
        // suspendUntil() reads the limit; cleared on every exit path,
        // including an exception out of an event.
        struct Active
        {
            Kernel &k;
            ~Active() { k.running_ = false; }
        } active{*this};
        running_ = true;
        until_ = until;
        stopped_ = false;
        while (!stopped_) {
            rethrowPending();
            if (events_.empty()) {
                // Drained early: see the time-advance contract above.
                if (until != kMaxTick)
                    now_ = until;
                return true;
            }
            if (events_.top().when > until) {
                now_ = until;
                return false;
            }
            const EventNode node = events_.pop();
            now_ = node.when;
            dispatch(node);
        }
        rethrowPending();
        return true;
    }

    /** Run for a relative amount of simulated time. */
    bool runFor(Tick delta) { return run(now_ + delta); }

    /**
     * Tick of the earliest pending event, kMaxTick when none. The
     * sharded network harness uses this to fast-forward conservative
     * sync windows in which no shard has any work: a window with no
     * events can produce no radio traffic and therefore needs no
     * exchange barrier.
     */
    Tick
    nextEventAt() const
    {
        return events_.empty() ? kMaxTick : events_.top().when;
    }

    /** Request that run() return after the current event. */
    void stop() { stopped_ = true; }

    /** True if no events remain. */
    bool idle() const { return events_.empty(); }

    /** Number of events dispatched so far (for host-side profiling). */
    std::uint64_t eventsDispatched() const { return dispatched_; }

    /** Number of events currently pending. */
    std::size_t pendingEvents() const { return events_.size(); }

    /**
     * Sequence number assigned to the most recent schedule()/
     * scheduleResume(). Snapshot code records it right after arming a
     * mirrored event so same-tick dispatch order can be reproduced at
     * restore (src/snapshot/): events re-armed in ascending recorded
     * seq get fresh monotonic seqs with the same relative order.
     */
    std::uint64_t lastScheduledSeq() const { return seq_ - 1; }

    /**
     * Jump simulated time forward to @p when with no pending events
     * (restore only: a freshly built kernel is warped to the snapshot
     * tick before state is poked back and processes respawned).
     * @p dispatched restores the host-side dispatch counter.
     */
    void
    warpTo(Tick when, std::uint64_t dispatched = 0)
    {
        panicIf(!events_.empty(), "warpTo with pending events");
        panicIf(when < now_, "warpTo into the past");
        now_ = when;
        dispatched_ = dispatched;
    }

    /** @name Steady-state allocation introspection (tests, benches)
     * Both values grow to the peak number of simultaneously pending
     * events and then stay flat: once warm, scheduling allocates
     * nothing. */
    ///@{
    /** Heap slots ever allocated for pending events. */
    std::size_t eventHeapCapacity() const { return events_.capacity(); }
    /** Callback arena slots ever allocated. */
    std::size_t callbackArenaSlots() const { return arena_.size(); }
    ///@}

    /** Wake-ups suspendUntil() took inline, without a heap round trip
     *  (host-side introspection; each is also in eventsDispatched()). */
    std::uint64_t inlineWakeups() const { return inlineWakeups_; }

    /** @name Structured tracing (see sim/trace.hh)
     * The kernel does not own the sink; the attaching host keeps it
     * alive for the duration of the run. */
    ///@{
    TraceSink *tracer() const { return tracer_; }
    void setTracer(TraceSink *sink) { tracer_ = sink; }
    ///@}

    /** Record an error escaping a root process (internal use). */
    void
    recordError(std::exception_ptr e)
    {
        if (!error_)
            error_ = e;
        stopped_ = true;
    }

  private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    struct Process
    {
        Co<void> co;
        std::string name;
    };

    std::uint32_t
    allocSlot()
    {
        if (!freeSlots_.empty()) {
            const std::uint32_t slot = freeSlots_.back();
            freeSlots_.pop_back();
            return slot;
        }
        panicIf(arena_.size() >= kNoSlot, "event arena exhausted");
        arena_.emplace_back();
        // The free list can hold at most one entry per arena slot;
        // growing it here keeps dispatch()'s slot recycling
        // allocation-free.
        freeSlots_.reserve(arena_.capacity());
        return static_cast<std::uint32_t>(arena_.size() - 1);
    }

    void
    dispatch(const EventNode &node)
    {
        ++dispatched_;
        if (node.resume) {
            if (!node.resume.done())
                node.resume.resume();
        } else {
            // Move the callback out of its arena slot and recycle the
            // slot *before* invoking: the callback may schedule (and
            // grow the arena) or throw, and must not leak its slot.
            EventFn fn = std::move(arena_[node.slot]);
            freeSlots_.push_back(node.slot);
            fn();
        }
    }

    void
    rethrowPending()
    {
        if (error_) {
            auto e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

    Tick now_ = 0;
    TraceSink *tracer_ = nullptr;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t inlineWakeups_ = 0;
    Tick until_ = 0;       ///< the active run()'s time limit
    bool running_ = false; ///< run() is on the stack
    bool stopped_ = false;
    std::exception_ptr error_;
    EventHeap events_;
    std::vector<EventFn> arena_;          ///< callback slots, recycled
    std::vector<std::uint32_t> freeSlots_;
    std::vector<Process> processes_;
};

template <typename T>
void
Co<T>::promise_type::unhandled_exception()
{
    this->exception = std::current_exception();
    if (this->rootKernel)
        this->rootKernel->recordError(this->exception);
}

inline void
Co<void>::promise_type::unhandled_exception()
{
    this->exception = std::current_exception();
    if (this->rootKernel)
        this->rootKernel->recordError(this->exception);
}

} // namespace snaple::sim

#endif // SNAPLE_SIM_KERNEL_HH
