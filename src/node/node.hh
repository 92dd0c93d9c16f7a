/**
 * @file
 * A complete SNAP/LE sensor-network node (Figure 1 of the paper):
 * processor core, memories, event queue, timer and message
 * coprocessors, radio transceiver and sensors.
 */

#ifndef SNAPLE_NODE_NODE_HH
#define SNAPLE_NODE_NODE_HH

#include <memory>
#include <string>

#include "asm/program.hh"
#include "coproc/message.hh"
#include "coproc/timer.hh"
#include "core/context.hh"
#include "core/core.hh"
#include "core/ports.hh"
#include "mem/sram.hh"
#include "obs/energest.hh"
#include "obs/flow.hh"
#include "radio/transceiver.hh"
#include "sim/rng.hh"

namespace snaple::node {

using core::FidelityMode;

/** Configuration for one node. */
struct NodeConfig
{
    core::CoreConfig core;

    /** Execution fidelity the core starts in (core/core.hh); switch
     *  at runtime with core().requestFidelity(). */
    FidelityMode fidelity = FidelityMode::Cycle;
    radio::RadioConfig radio;
    bool attachRadio = true;
    std::string name = "node";

    /**
     * Stable identity for seed derivation (a node address, not a
     * registration index). The network harness fills it with the
     * registration index when left at its default; set it explicitly
     * when node order may vary.
     */
    std::uint32_t nodeId = 0;

    /**
     * Base seed for deterministic per-node randomness. When nonzero,
     * the node's architectural LFSR is seeded at construction with
     * sim::deriveSeed(baseSeed, nodeId) — a pure function of the two,
     * so workload randomness is independent of node registration
     * order and of shard assignment in the parallel harness. Zero
     * (the default) leaves the LFSR at its architectural reset value.
     * Guest code that executes `seed` afterwards overrides this, as
     * on real hardware.
     */
    std::uint64_t baseSeed = 0;
};

/** One fully assembled sensor node. */
class SnapNode
{
  public:
    /**
     * @param kernel shared simulation kernel.
     * @param medium shared radio medium; may be null when
     *        cfg.attachRadio is false (bench rigs without radio).
     * @param cfg node configuration.
     * @param prog program to load into IMEM/DMEM.
     */
    SnapNode(sim::Kernel &kernel, radio::Medium *medium,
             const NodeConfig &cfg, const assembler::Program &prog)
        : cfg_(cfg), ctx_(kernel, cfg.core),
          imem_(ctx_, mem::Bank::Imem, cfg.core.imemWords),
          dmem_(ctx_, mem::Bank::Dmem, cfg.core.dmemWords),
          eventQueue_(kernel, cfg.core.eventQueueDepth,
                      ctx_.gd(ctx_.tcal.eventWakeGd), cfg.name + ".evq"),
          msgIn_(kernel, cfg.core.msgFifoDepth, 0, cfg.name + ".msgin"),
          msgOut_(kernel, cfg.core.msgFifoDepth, 0, cfg.name + ".msgout"),
          timerPort_(kernel, ctx_.gd(4), cfg.name + ".tport"),
          core_(ctx_, imem_, dmem_, eventQueue_, msgIn_, msgOut_,
                timerPort_, cfg.name + ".core"),
          timer_(ctx_, timerPort_, eventQueue_),
          msgCoproc_(ctx_, msgIn_, msgOut_, eventQueue_),
          flowTracker_(cfg.nodeId)
    {
        timer_.setEnergest(&energest_);
        msgCoproc_.setEnergest(&energest_);
        if (cfg.attachRadio) {
            sim::fatalIf(medium == nullptr,
                         "node wants a radio but no medium given");
            radio_ = std::make_unique<radio::Transceiver>(ctx_, *medium,
                                                          cfg.radio);
            radio_->setFlowTracker(&flowTracker_);
            radio_->setEnergest(&energest_);
            msgCoproc_.attachRadio(*radio_);
        }
        imem_.load(prog.imem);
        dmem_.load(prog.dmem);
        if (cfg.baseSeed != 0)
            core_.seedLfsr(static_cast<std::uint16_t>(derivedSeed()));
    }

    /**
     * The node's derived seed: sim::deriveSeed(baseSeed, nodeId), or 0
     * when no base seed is configured. Hosts reseeding mid-run (e.g.
     * after guest boot code has run its own `seed`) should draw from
     * this value rather than inventing per-node constants.
     */
    std::uint64_t
    derivedSeed() const
    {
        return cfg_.baseSeed ? sim::deriveSeed(cfg_.baseSeed, cfg_.nodeId)
                             : 0;
    }

    /** Attach a sensor under a Query-addressable id. */
    void
    attachSensor(unsigned id, coproc::SensorPort &sensor)
    {
        msgCoproc_.attachSensor(id, sensor);
    }

    /** Spawn all of the node's hardware processes. */
    void
    start()
    {
        core_.start(cfg_.fidelity);
        timer_.start();
        msgCoproc_.start();
    }

    /**
     * Respawn the node's processes directly into the parked states a
     * snapshot captured (docs/CHECKPOINT.md). The caller has already
     * poked the architectural state back; the spawned coroutines park
     * without consuming simulated time.
     */
    void
    startRestored()
    {
        core_.startRestored();
        timer_.start();
        msgCoproc_.startRestored();
    }

    /**
     * Refresh every sampled metric in ctx().metrics to "now": core
     * counters and histograms, energy gauges (leakage and radio
     * idle-listening accrued first), coprocessor occupancies and radio
     * mode. Call immediately before reading or serializing the
     * registry; between calls the gauges hold the previous sample.
     */
    void
    sampleMetrics()
    {
        if (radio_)
            radio_->accrueListenEnergy();
        core_.publishMetrics();
        ctx_.publishEnergyMetrics();
        ctx_.metrics.gauge("msg.in_occupancy", sim::GaugeMerge::Sum)
            .set(double(msgIn_.size()));
        ctx_.metrics.gauge("msg.out_occupancy", sim::GaugeMerge::Sum)
            .set(double(msgOut_.size()));
        unsigned armed = 0;
        for (unsigned n = 0; n < 3; ++n)
            armed += timer_.armed(n) ? 1 : 0;
        ctx_.metrics.gauge("timer.armed", sim::GaugeMerge::Sum)
            .set(double(armed));
        if (radio_)
            ctx_.metrics.gauge("radio.mode", sim::GaugeMerge::Skip)
                .set(double(static_cast<int>(radio_->mode())));

        // Energest duty ledger (docs/METRICS.md): accrued ticks and
        // attributed energy per component state, plus the core's
        // exact active/sleep split from its own stats.
        const sim::Tick now = ctx_.kernel.now();
        for (std::size_t i = 0; i < obs::kNumComps; ++i) {
            const auto c = static_cast<obs::Comp>(i);
            const std::string stem =
                std::string("energest.") + obs::compName(c);
            ctx_.metrics.gauge(stem + "_ticks", sim::GaugeMerge::Sum)
                .set(double(energest_.ticks(c, now)));
            ctx_.metrics.gauge(stem + "_pj", sim::GaugeMerge::Sum)
                .set(energest_.pj(c));
        }
        const sim::Tick active = core_.activeTimeNow();
        ctx_.metrics
            .gauge("energest.cpu_active_ticks", sim::GaugeMerge::Sum)
            .set(double(active));
        ctx_.metrics
            .gauge("energest.cpu_sleep_ticks", sim::GaugeMerge::Sum)
            .set(double(now - active));
    }

    core::NodeContext &ctx() { return ctx_; }
    const core::NodeContext &ctx() const { return ctx_; }
    core::SnapCore &core() { return core_; }
    const core::SnapCore &core() const { return core_; }
    coproc::TimerCoproc &timer() { return timer_; }
    coproc::MessageCoproc &msgCoproc() { return msgCoproc_; }
    radio::Transceiver *transceiver() { return radio_.get(); }
    mem::Sram &imem() { return imem_; }
    mem::Sram &dmem() { return dmem_; }
    const std::string &name() const { return cfg_.name; }

    /** @name Snapshot support (src/snapshot/)
     * The hardware FIFOs between the core and its coprocessors carry
     * live words across a checkpoint; the snapshot layer serializes
     * their buffers directly. */
    ///@{
    core::EventQueue &eventQueue() { return eventQueue_; }
    core::WordFifo &msgInFifo() { return msgIn_; }
    core::WordFifo &msgOutFifo() { return msgOut_; }
    obs::FlowTracker &flowTracker() { return flowTracker_; }
    const obs::FlowTracker &flowTracker() const { return flowTracker_; }
    obs::Energest &energest() { return energest_; }
    const obs::Energest &energest() const { return energest_; }
    ///@}

    /**
     * Hash of the node kernel's trace so far; 0 when no sink is
     * attached.
     */
    std::uint64_t
    traceHash() const
    {
        const sim::TraceSink *sink = ctx_.kernel.tracer();
        return sink ? sink->hash() : 0;
    }

  private:
    NodeConfig cfg_;
    core::NodeContext ctx_;
    mem::Sram imem_;
    mem::Sram dmem_;
    core::EventQueue eventQueue_;
    core::WordFifo msgIn_;
    core::WordFifo msgOut_;
    core::TimerPort timerPort_;
    core::SnapCore core_;
    coproc::TimerCoproc timer_;
    coproc::MessageCoproc msgCoproc_;
    obs::FlowTracker flowTracker_;
    obs::Energest energest_;
    std::unique_ptr<radio::Transceiver> radio_;
};

} // namespace snaple::node

#endif // SNAPLE_NODE_NODE_HH
