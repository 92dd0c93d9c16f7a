/**
 * @file
 * A complete SNAP/LE sensor-network node (Figure 1 of the paper).
 *
 * SnapNode derives from core::Machine, which wires the processor half:
 * core, memories, event queue, r15 FIFOs and timer coprocessor. This
 * class adds only what a networked node has on top: the message
 * coprocessor, the radio transceiver, the flow tracker and the
 * node-level metrics. Sensors are attached by the host.
 */

#ifndef SNAPLE_NODE_NODE_HH
#define SNAPLE_NODE_NODE_HH

#include <array>
#include <memory>
#include <string>

#include "asm/program.hh"
#include "coproc/message.hh"
#include "core/machine.hh"
#include "obs/flow.hh"
#include "radio/transceiver.hh"
#include "sim/rng.hh"

namespace snaple::node {

using core::FidelityMode;

/** Configuration for one node. */
struct NodeConfig
{
    core::CoreConfig core;

    /** Execution fidelity of the core (core/core.hh), fixed for the
     *  node's life. */
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
class SnapNode : public core::Machine
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
        : Machine(kernel, cfg.core, cfg.name), name_(cfg.name),
          nodeId_(cfg.nodeId), baseSeed_(cfg.baseSeed),
          fidelity_(cfg.fidelity),
          msgCoproc_(ctx(), msgIn(), msgOut(), eventQueue()),
          flowTracker_(cfg.nodeId)
    {
        if (cfg.attachRadio) {
            sim::fatalIf(medium == nullptr,
                         "node wants a radio but no medium given");
            radio_ = std::make_unique<radio::Transceiver>(ctx(), *medium,
                                                          cfg.radio);
            radio_->setFlowTracker(&flowTracker_);
            msgCoproc_.attachRadio(*radio_);
        }
        load(prog);
        if (cfg.baseSeed != 0)
            core().seedLfsr(static_cast<std::uint16_t>(derivedSeed()));
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
        return baseSeed_ ? sim::deriveSeed(baseSeed_, nodeId_) : 0;
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
        Machine::start(fidelity_);
        msgCoproc_.start();
    }

    /** Machine::startRestored() plus the message coprocessor. */
    void
    startRestored()
    {
        Machine::startRestored();
        msgCoproc_.startRestored();
    }

    /**
     * Refresh every sampled metric in ctx().metrics to "now": the
     * Machine's core, energy and occupancy metrics, then radio mode
     * and the energest gauges. Call immediately before reading or
     * serializing the registry; between calls the gauges hold the
     * previous sample. Every value is a read; sampling never changes
     * the run.
     */
    void
    sampleMetrics()
    {
        Machine::sampleMetrics();
        if (!pub_.cpuActive)
            bindMetrics();
        if (radio_)
            pub_.radioMode->set(double(static_cast<int>(radio_->mode())));

        // Energest duty ledger (docs/METRICS.md): accrued ticks and
        // attributed energy per component state (idle listening
        // priced into radio_listen), plus the core's exact
        // active/sleep split from its own stats.
        const sim::Tick now = ctx().kernel.now();
        const obs::Energest &e = ctx().energest;
        for (std::size_t i = 0; i < obs::kNumComps; ++i) {
            const auto c = static_cast<obs::Comp>(i);
            pub_.energestTicks[i]->set(double(e.ticks(c, now)));
            pub_.energestPj[i]->set(e.pj(c));
        }
        pub_.energestPj[std::size_t(obs::Comp::RadioListen)]->set(
            e.pj(obs::Comp::RadioListen) + ctx().staticPj().listen);
        const sim::Tick active = core().activeTimeNow();
        pub_.cpuActive->set(double(active));
        pub_.cpuSleep->set(double(now - active));
    }

    coproc::MessageCoproc &msgCoproc() { return msgCoproc_; }
    radio::Transceiver *transceiver() { return radio_.get(); }
    const std::string &name() const { return name_; }
    /** The execution fidelity this node was configured with. */
    FidelityMode fidelity() const { return fidelity_; }
    obs::FlowTracker &flowTracker() { return flowTracker_; }
    const obs::FlowTracker &flowTracker() const { return flowTracker_; }

    /**
     * Hash of the node kernel's trace so far; 0 when no sink is
     * attached.
     */
    std::uint64_t
    traceHash() const
    {
        const sim::TraceSink *sink = ctx().kernel.tracer();
        return sink ? sink->hash() : 0;
    }

  private:
    /** The NodeConfig fields read after construction; the core
     *  config lives on in ctx().cfg and the radio's in its
     *  transceiver. */
    std::string name_;
    std::uint32_t nodeId_;
    std::uint64_t baseSeed_;
    FidelityMode fidelity_;
    coproc::MessageCoproc msgCoproc_;
    obs::FlowTracker flowTracker_;
    std::unique_ptr<radio::Transceiver> radio_;

    /** The node-level instruments sampleMetrics() publishes, looked
     *  up on its first call. */
    struct Published
    {
        sim::MetricGauge *radioMode = nullptr; ///< null without a radio
        std::array<sim::MetricGauge *, obs::kNumComps> energestTicks{};
        std::array<sim::MetricGauge *, obs::kNumComps> energestPj{};
        sim::MetricGauge *cpuActive = nullptr;
        sim::MetricGauge *cpuSleep = nullptr;
    };
    Published pub_;

    void
    bindMetrics()
    {
        sim::MetricsRegistry &m = ctx().metrics;
        sim::MetricName name;
        if (radio_)
            pub_.radioMode = &m.gauge("radio.mode", sim::GaugeMerge::Skip);
        for (std::size_t i = 0; i < obs::kNumComps; ++i) {
            const std::string_view comp =
                obs::compName(static_cast<obs::Comp>(i));
            pub_.energestTicks[i] =
                &m.gauge(name("energest.", comp, "_ticks"));
            pub_.energestPj[i] = &m.gauge(name("energest.", comp, "_pj"));
        }
        pub_.cpuActive = &m.gauge("energest.cpu_active_ticks");
        pub_.cpuSleep = &m.gauge("energest.cpu_sleep_ticks");
    }
};

} // namespace snaple::node

#endif // SNAPLE_NODE_NODE_HH
