/**
 * @file
 * The timer coprocessor (paper section 3.2).
 *
 * Three self-decrementing 24-bit timer registers. The core schedules a
 * timeout by sending a timer number plus duration (`schedhi` stages the
 * high 8 bits, `schedlo` supplies the low 16 bits and starts the
 * countdown). When a timer reaches zero the coprocessor inserts an
 * event token (Timer0/1/2) into the hardware event queue. `cancel` of
 * an armed timer also inserts the token, so software observes exactly
 * one token per scheduled timeout and the schedule/cancel/expire race
 * is resolved in hardware — the software just tracks which timers it
 * canceled, as the paper prescribes.
 *
 * Idle timers are modeled with no switching activity: a countdown is a
 * single scheduled kernel event, not per-tick decrements. The tick
 * period comes from a calibrated timing reference and therefore does
 * not scale with the core supply voltage.
 */

#ifndef SNAPLE_COPROC_TIMER_HH
#define SNAPLE_COPROC_TIMER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/context.hh"
#include "core/ports.hh"
#include "obs/energest.hh"
#include "sim/trace.hh"

namespace snaple::coproc {

/** The three-register timer coprocessor. */
class TimerCoproc
{
  public:
    /** One timer register's architectural state (snapshot support). */
    struct Timer
    {
        bool armed = false;
        std::uint8_t stagedHi = 0;   ///< from schedhi, used by schedlo
        std::uint64_t generation = 0;///< invalidates stale expirations
    };

    /**
     * Mirror of one pending expire() kernel event. Stale entries
     * (canceled or re-armed timers) stay mirrored until their event
     * fires: the event is a behavioral no-op but still occupies the
     * kernel heap, and Kernel::nextEventAt() steers the parallel
     * harness's quiet fast-forward — dropping it at restore would
     * change which barriers a restored run visits. @p seq is the
     * kernel sequence number at schedule time; restore re-arms all
     * mirrored events across the node sorted by it, reproducing
     * same-tick dispatch order.
     */
    struct ExpireRec
    {
        std::uint8_t n = 0;
        std::uint64_t generation = 0;
        sim::Tick deadline = 0;
        std::uint64_t seq = 0;
    };
    /** Snapshot view of the registry-native counters ("timer.*"). */
    struct Stats
    {
        std::uint64_t scheduled = 0;
        std::uint64_t expired = 0;
        std::uint64_t canceled = 0;
        std::uint64_t tokensDropped = 0; ///< event queue full
    };

    TimerCoproc(core::NodeContext &ctx, core::TimerPort &port,
                core::EventQueue &event_queue);

    TimerCoproc(const TimerCoproc &) = delete;
    TimerCoproc &operator=(const TimerCoproc &) = delete;

    /** Spawn the command-processing process. */
    void start();

    /** True if timer @p n is counting down. */
    bool armed(unsigned n) const { return timers_[n].armed; }

    /** Attach the node's energest duty ledger (src/obs/energest.hh):
     *  accrues Timer ticks while any register counts down. Optional;
     *  purely observational. */
    void setEnergest(obs::Energest *e) { energest_ = e; }

    /** Counters live in ctx.metrics; this assembles a snapshot. */
    Stats
    stats() const
    {
        return Stats{scheduled_->value(), expired_->value(),
                     canceled_->value(), tokensDropped_->value()};
    }

    /** @name Snapshot support (src/snapshot/) */
    ///@{
    const std::array<Timer, 3> &timerState() const { return timers_; }
    const std::vector<ExpireRec> &pendingExpires() const
    {
        return pending_;
    }
    void restoreTimerState(const std::array<Timer, 3> &t)
    {
        timers_ = t;
    }
    /** Re-schedule one saved expire event (restore re-arm phase). */
    void rearmExpire(std::uint8_t n, std::uint64_t generation,
                     sim::Tick deadline);
    ///@}

  private:
    sim::Co<void> commandProcess();
    void arm(unsigned n, std::uint32_t ticks24);
    void expire(unsigned n, std::uint64_t generation);
    void pushToken(unsigned n);
    /** Mirror "any register armed" into the energest Timer state. */
    void accrueTimerDuty();
    /** Charge @p pj_nominal to Cat::Coproc and the Timer component. */
    void chargeTimerPj(double pj_nominal);

    core::NodeContext &ctx_;
    core::TimerPort &port_;
    core::EventQueue &eventQueue_;
    obs::Energest *energest_ = nullptr;
    sim::TraceScope trace_;
    sim::WarnRateLimiter dropWarn_;
    std::array<Timer, 3> timers_;
    /** One entry per pending expire() kernel event (incl. stale). */
    std::vector<ExpireRec> pending_;
    /** Registry-native counters — visible to metrics sampling even
     *  with no trace sink attached, unlike the TokenDrop trace. */
    sim::MetricCounter *scheduled_;
    sim::MetricCounter *expired_;
    sim::MetricCounter *canceled_;
    sim::MetricCounter *tokensDropped_;
};

} // namespace snaple::coproc

#endif // SNAPLE_COPROC_TIMER_HH
