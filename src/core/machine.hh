/**
 * @file
 * The processor half of a SNAP/LE node (Figure 1 of the paper).
 *
 * Machine wires together the core, the two memory banks, the hardware
 * event queue, the r15 message FIFOs and the timer coprocessor. It has
 * no message coprocessor, radio or sensors, so tests and microbenches
 * can drive the FIFOs and the event queue directly. node::SnapNode
 * derives from Machine and adds the message coprocessor, the radio and
 * the flow tracker; this file is the one place the core half is wired.
 */

#ifndef SNAPLE_CORE_MACHINE_HH
#define SNAPLE_CORE_MACHINE_HH

#include <string>

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
    /** Architected DMEM size: 2K words (4 KB). */
    static constexpr std::size_t kDmemWords = 2048;

    /** Depth of each r15 message FIFO (core <-> message coprocessor). */
    static constexpr std::size_t kMsgFifoDepth = 4;

    /**
     * @param name prefix of the trace scopes: `<name>.evq`, `.msgin`,
     *        `.msgout`, `.tport` and `.core`.
     */
    explicit Machine(sim::Kernel &kernel, const CoreConfig &cfg = {},
                     const std::string &name = "node")
        : ctx_(kernel, cfg),
          imem_(ctx_, mem::Bank::Imem, cfg.imemWords),
          dmem_(ctx_, mem::Bank::Dmem, kDmemWords),
          eventQueue_(kernel, cfg.eventQueueDepth,
                      ctx_.gd(ctx_.tcal.eventWakeGd), name + ".evq"),
          msgIn_(kernel, kMsgFifoDepth, 0, name + ".msgin"),
          msgOut_(kernel, kMsgFifoDepth, 0, name + ".msgout"),
          timerPort_(kernel, ctx_.gd(4), name + ".tport"),
          core_(ctx_, imem_, dmem_, eventQueue_, msgIn_, msgOut_,
                timerPort_, name + ".core"),
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

    /**
     * Respawn the processes directly into the parked states a snapshot
     * captured (docs/CHECKPOINT.md). The caller has already poked the
     * architectural state back; the spawned coroutines park without
     * consuming simulated time.
     */
    void
    startRestored()
    {
        core_.startRestored();
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
     * Every value is a read; sampling never changes the run.
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
    const NodeContext &ctx() const { return ctx_; }
    SnapCore &core() { return core_; }
    const SnapCore &core() const { return core_; }
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
