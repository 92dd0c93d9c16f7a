/**
 * @file
 * TickGate: a one-shot, re-armable wait point with no kernel event on
 * the waiting side.
 *
 * A coroutine co_awaits wait() and parks as a plain coroutine-handle
 * registration; open() resumes it inline (or latches, if nobody is
 * waiting yet). The opener schedules the open() call on the kernel, so
 * the *only* pending kernel event for a gated wait is the opener's —
 * which is exactly what the snapshot subsystem needs: a parked wait
 * whose wake event can be dropped at save and re-armed at restore with
 * a chosen sequence position, while the waiting coroutine itself
 * re-parks identically in both straight and restored runs
 * (docs/CHECKPOINT.md).
 */

#ifndef SNAPLE_SIM_GATE_HH
#define SNAPLE_SIM_GATE_HH

#include <coroutine>

#include "logging.hh"

namespace snaple::sim {

/** One waiter, one open() per cycle; reusable after each pairing. */
class TickGate
{
  public:
    struct WaitAwaiter
    {
        TickGate &gate;

        bool
        await_ready() const noexcept
        {
            return gate.open_;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            panicIf(gate.waiter_ != nullptr,
                    "TickGate supports a single waiter");
            gate.waiter_ = h;
        }

        void await_resume() const noexcept { gate.open_ = false; }
    };

    /** Park until open(); consumes a latched open immediately. */
    WaitAwaiter wait() { return WaitAwaiter{*this}; }

    /** Release the waiter inline, or latch if none is parked yet.
     *  Call it last in its event: the waiter may run on past later
     *  ticks before open() returns (Kernel::suspendUntil). */
    void
    open()
    {
        if (waiter_) {
            const std::coroutine_handle<> h = waiter_;
            waiter_ = nullptr;
            open_ = true;
            h.resume();
        } else {
            open_ = true;
        }
    }

    /** A coroutine is currently parked on this gate. */
    bool waiting() const { return waiter_ != nullptr; }

  private:
    std::coroutine_handle<> waiter_;
    bool open_ = false;
};

} // namespace snaple::sim

#endif // SNAPLE_SIM_GATE_HH
