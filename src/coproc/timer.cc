#include "coproc/timer.hh"

namespace snaple::coproc {

using energy::Cat;
using isa::TimerFn;

/** Tick period. The timer runs off a calibrated reference, so the
 *  tick does not scale with the core supply voltage. */
constexpr sim::Tick kTimerTick = sim::kMicrosecond;

TimerCoproc::TimerCoproc(core::NodeContext &ctx, core::TimerPort &port,
                         core::EventQueue &event_queue)
    : ctx_(ctx), port_(port), eventQueue_(event_queue),
      trace_(ctx.kernel, "timer-coproc"),
      scheduled_(&ctx.metrics.counter("timer.scheduled")),
      expired_(&ctx.metrics.counter("timer.expired")),
      canceled_(&ctx.metrics.counter("timer.canceled")),
      tokensDropped_(&ctx.metrics.counter("timer.tokens_dropped"))
{}

void
TimerCoproc::start()
{
    ctx_.kernel.spawn(commandProcess(), "timer-coproc");
}

sim::Co<void>
TimerCoproc::commandProcess()
{
    for (;;) {
        core::TimerCmd cmd = co_await port_.recv();
        Timer &t = timers_[cmd.timer];
        switch (cmd.fn) {
          case TimerFn::SchedHi:
            chargeTimerPj(ctx_.ecal.timerSchedulePj);
            t.stagedHi = static_cast<std::uint8_t>(cmd.value & 0xff);
            break;
          case TimerFn::SchedLo: {
            chargeTimerPj(ctx_.ecal.timerSchedulePj);
            std::uint32_t ticks =
                (static_cast<std::uint32_t>(t.stagedHi) << 16) |
                cmd.value;
            arm(cmd.timer, ticks);
            break;
          }
          case TimerFn::Cancel:
            chargeTimerPj(ctx_.ecal.timerSchedulePj);
            if (t.armed) {
                // Disarm and still deliver the token: software sees
                // exactly one token per schedule, expired or canceled.
                t.armed = false;
                ++t.generation;
                canceled_->inc();
                accrueTimerDuty();
                trace_.emit(sim::TraceEvent::TimerCancel, cmd.timer);
                pushToken(cmd.timer);
            }
            break;
        }
    }
}

void
TimerCoproc::arm(unsigned n, std::uint32_t ticks24)
{
    Timer &t = timers_[n];
    // Re-scheduling an armed timer silently replaces the countdown.
    ++t.generation;
    t.armed = true;
    accrueTimerDuty();
    scheduled_->inc();
    // A zero duration expires after one tick, not immediately: the
    // register decrements through zero.
    const std::uint64_t dur = (ticks24 == 0) ? 1 : ticks24;
    trace_.emit(sim::TraceEvent::TimerSched, n, dur);
    scheduleExpire(static_cast<std::uint8_t>(n), t.generation,
                   ctx_.kernel.now() + dur * kTimerTick);
}

void
TimerCoproc::scheduleExpire(std::uint8_t n, std::uint64_t generation,
                            sim::Tick deadline)
{
    ctx_.kernel.schedule(deadline, [this, n, generation] {
        expire(n, generation);
    });
    pending_.push_back(ExpireRec{n, generation, deadline,
                                 ctx_.kernel.lastScheduledSeq()});
}

void
TimerCoproc::expire(unsigned n, std::uint64_t generation)
{
    // The kernel event firing now leaves the mirror whether or not it
    // is stale; stale events no-op below exactly as they always have.
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->n == n && it->generation == generation) {
            pending_.erase(it);
            break;
        }
    }
    Timer &t = timers_[n];
    if (!t.armed || t.generation != generation)
        return; // canceled or re-armed meanwhile
    t.armed = false;
    accrueTimerDuty();
    expired_->inc();
    chargeTimerPj(ctx_.ecal.timerExpirePj);
    trace_.emit(sim::TraceEvent::TimerExpire, n);
    pushToken(n);
}

void
TimerCoproc::chargeTimerPj(double pj_nominal)
{
    const double pj = ctx_.charge(Cat::Coproc, pj_nominal);
    ctx_.energest.addPj(obs::Comp::Timer, pj);
}

void
TimerCoproc::accrueTimerDuty()
{
    const bool any = timers_[0].armed || timers_[1].armed ||
                     timers_[2].armed;
    ctx_.energest.set(obs::Comp::Timer, any, ctx_.kernel.now());
}

void
TimerCoproc::pushToken(unsigned n)
{
    core::EventToken tok{static_cast<std::uint8_t>(n),
                         ctx_.kernel.now()};
    if (!eventQueue_.tryPush(tok)) {
        // A dropped expiration token is a lost interrupt: the handler
        // never runs. Make it observable instead of silently bumping a
        // counter nobody reads.
        tokensDropped_->inc();
        const std::uint64_t dropped = tokensDropped_->value();
        trace_.emit(sim::TraceEvent::TokenDrop, n, dropped);
        if (dropWarn_.shouldReport(dropped))
            sim::warn("timer-coproc: hardware event queue full, timer ",
                      n, " expiration token dropped (", dropped,
                      " dropped so far)");
    }
}

} // namespace snaple::coproc
