/**
 * @file
 * A minimal single-processor machine for tests and microbenches.
 *
 * Machine wires together the core, the two memory banks, the hardware
 * event queue, the r15 message FIFOs and the timer coprocessor — but
 * no message coprocessor, radio or sensors, so tests can drive the
 * FIFOs and the event queue directly. Full sensor nodes are assembled
 * by node::SnapNode.
 */

#ifndef SNAPLE_CORE_MACHINE_HH
#define SNAPLE_CORE_MACHINE_HH

#include "asm/program.hh"
#include "coproc/timer.hh"
#include "core/context.hh"
#include "core/core.hh"
#include "core/ports.hh"
#include "mem/sram.hh"

namespace snaple::core {

/** Core + memories + event queue + timer coprocessor. */
class Machine
{
  public:
    explicit Machine(sim::Kernel &kernel, const CoreConfig &cfg = {})
        : ctx_(kernel, cfg),
          imem_(ctx_, mem::Bank::Imem, cfg.imemWords),
          dmem_(ctx_, mem::Bank::Dmem, cfg.dmemWords),
          eventQueue_(kernel, cfg.eventQueueDepth,
                      ctx_.gd(ctx_.tcal.eventWakeGd), "event-queue"),
          msgIn_(kernel, cfg.msgFifoDepth, 0, "msg-in"),
          msgOut_(kernel, cfg.msgFifoDepth, 0, "msg-out"),
          timerPort_(kernel, ctx_.gd(4), "timer-port"),
          core_(ctx_, imem_, dmem_, eventQueue_, msgIn_, msgOut_,
                timerPort_),
          timer_(ctx_, timerPort_, eventQueue_)
    {}

    /** Load an assembled program into the memory banks. */
    void
    load(const assembler::Program &prog)
    {
        imem_.load(prog.imem);
        dmem_.load(prog.dmem);
    }

    /** Spawn all hardware processes. */
    void
    start(FidelityMode fidelity = FidelityMode::Cycle)
    {
        core_.start(fidelity);
        timer_.start();
    }

    /** Inject an event token as an external agent would. */
    bool
    postEvent(isa::EventNum e)
    {
        return eventQueue_.tryPush(EventToken{
            static_cast<std::uint8_t>(e), ctx_.kernel.now()});
    }

    /**
     * Refresh every sampled metric in ctx().metrics (core counters,
     * energy gauges, occupancies). Call at the metrics cadence and
     * once before reading or writing the registry at end of run.
     */
    void
    sampleMetrics()
    {
        core_.publishMetrics();
        ctx_.publishEnergyMetrics();
        ctx_.publishOccupancy(msgIn_.size(), msgOut_.size(),
                              timer_.armedCount());
    }

    NodeContext &ctx() { return ctx_; }
    SnapCore &core() { return core_; }
    mem::Sram &imem() { return imem_; }
    mem::Sram &dmem() { return dmem_; }
    EventQueue &eventQueue() { return eventQueue_; }
    WordFifo &msgIn() { return msgIn_; }
    WordFifo &msgOut() { return msgOut_; }
    coproc::TimerCoproc &timer() { return timer_; }

  private:
    NodeContext ctx_;
    mem::Sram imem_;
    mem::Sram dmem_;
    EventQueue eventQueue_;
    WordFifo msgIn_;
    WordFifo msgOut_;
    TimerPort timerPort_;
    SnapCore core_;
    coproc::TimerCoproc timer_;
};

} // namespace snaple::core

#endif // SNAPLE_CORE_MACHINE_HH
