/**
 * @file
 * Shared per-node context: kernel, operating point, calibration, the
 * energy ledger and the energest duty clocks.
 *
 * Every model component of one node holds a reference to one
 * NodeContext; sweeping supply voltage or running an ablation means
 * constructing a node with a different CoreConfig.
 */

#ifndef SNAPLE_CORE_CONTEXT_HH
#define SNAPLE_CORE_CONTEXT_HH

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "energy/calibration.hh"
#include "energy/ledger.hh"
#include "energy/voltage.hh"
#include "isa/isa.hh"
#include "obs/energest.hh"
#include "sim/kernel.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

namespace snaple::core {

/** Build-time knobs for one SNAP/LE node. */
struct CoreConfig
{
    /** Supply voltage (the paper evaluates 1.8, 0.9 and 0.6 V). */
    double volts = energy::kNominalVolts;

    /**
     * Ablation: collapse the two-level bus hierarchy into one shared
     * bus. All units then see the same, higher bus capacitance and
     * latency instead of fast units seeing a cheap bus (section 3.1).
     */
    bool flatBus = false;

    /** Stop the whole kernel when this core executes `halt`. */
    bool stopOnHalt = true;

    std::size_t eventQueueDepth = 8;

    /**
     * IMEM size in words. The architected size is 2K words (4 KB), as
     * for the DMEM (Machine::kDmemWords); microbenches that unroll
     * long straight-line instruction sequences (Figure 4's
     * 1000-instruction blocks) may enlarge it.
     */
    std::size_t imemWords = 2048;

    /**
     * Transistor-sizing knob (paper section 6: "we plan to redesign
     * the processor to sacrifice its performance for even lower
     * energy per instruction"). Low-energy sizing uses smaller
     * devices: less switched capacitance (energy scale < 1) at the
     * cost of longer gate delays (delay scale > 1). The defaults are
     * the nominal design evaluated in the paper.
     */
    double sizingDelayScale = 1.0;
    double sizingEnergyScale = 1.0;

    /** A preset matching the paper's future-work direction. */
    static CoreConfig
    lowEnergySizing(CoreConfig base)
    {
        base.sizingDelayScale = 2.5;
        base.sizingEnergyScale = 0.6;
        return base;
    }
};

/** Everything a node's components share. */
struct NodeContext
{
    /** Handler-attribution slots: one per event plus one for boot /
     *  background activity (index isa::kNumEvents). */
    static constexpr std::size_t kHandlerSlots = isa::kNumEvents + 1;
    static constexpr std::size_t kBootSlot = isa::kNumEvents;

    sim::Kernel &kernel;
    CoreConfig cfg;
    energy::OperatingPoint op;
    /** The calibration tables, one copy for every node: nothing sets
     *  them per node. */
    static constexpr energy::EnergyCal ecal{};
    static constexpr energy::TimingCal tcal{};
    /** Dynamic energy only; energy() adds static energy at read time. */
    energy::EnergyLedger ledger;
    /** Duty clocks (src/obs/energest.hh); its RadioListen ticks are the
     *  one Rx clock idle listening is priced from. */
    obs::Energest energest;
    /** The radio's idle-listening power, nW; 0 without one. */
    double listenPowerNw = 0.0;
    /** This node's metrics instruments (docs/METRICS.md). */
    sim::MetricsRegistry metrics;

    /**
     * Event whose handler is currently executing, for energy
     * attribution; 0xff means boot or background (asleep). Maintained
     * by the core's fetch process at dispatch/sleep boundaries.
     */
    std::uint8_t activeHandler = 0xff;

    NodeContext(sim::Kernel &k, const CoreConfig &c = {})
        : kernel(k), cfg(c), op(c.volts),
          energyScopes_(makeEnergyScopes(
              k, std::make_index_sequence<energy::kNumCats>{}))
    {}

    /** Ticks for @p n gate delays at this node's supply. */
    sim::Tick
    gd(double n) const
    {
        return op.gd(n * cfg.sizingDelayScale);
    }

    /** @p pj_nominal (a 1.8 V calibration value) at this node's
     *  supply and sizing, as charge() books it. */
    double
    scalePj(double pj_nominal) const
    {
        return op.scalePj(pj_nominal) * cfg.sizingEnergyScale;
    }

    /**
     * Charge @p pj_nominal (a 1.8 V calibration value) to @p cat.
     * Returns the actual picojoules charged at this operating point,
     * so callers can attribute the same amount to side ledgers (the
     * energest duty accountant, src/obs/energest.hh).
     */
    double
    charge(energy::Cat cat, double pj_nominal)
    {
        const double pj = scalePj(pj_nominal);
        ledger.add(cat, pj);
        chargedPj_ += pj;
        handlerPj_[handlerSlot()] += pj;
        energyScopes_[static_cast<std::size_t>(cat)].emit(
            sim::TraceEvent::EnergyDebit, 0, 0, pj);
        return pj;
    }

    /** The attribution slot for the currently running handler. */
    std::size_t
    handlerSlot() const
    {
        return activeHandler < isa::kNumEvents ? activeHandler
                                               : kBootSlot;
    }

    /** Cumulative dynamic energy charged so far (excludes leakage and
     *  direct ledger.add() paths like radio TX/RX word energy). */
    double chargedPj() const { return chargedPj_; }

    /** Dynamic energy attributed to one handler slot. */
    double
    handlerPj(std::size_t slot) const
    {
        return handlerPj_[slot];
    }

    /** Static (leakage) power at this operating point, nanowatts. */
    double
    leakagePowerNw() const
    {
        return op.scaleLeakNw(ecal.leakLogicNw18 + ecal.leakMemNw18) *
               cfg.sizingEnergyScale;
    }

    /** Static energy as of now(), picojoules. */
    struct StaticPj
    {
        double leakage = 0.0;
        double listen = 0.0;
    };

    /**
     * Static energy as power × ticks: leakage from t=0, awake or
     * asleep (the paper's future-work quantity), and idle listening
     * over the energest Rx ticks. A pure read; the kernel clock stops
     * at death or halt, and so does the sum.
     */
    StaticPj
    staticPj() const
    {
        const sim::Tick now = kernel.now();
        const auto pj = [](double nw, sim::Tick t) {
            return nw * 1e-9 /* W */ * sim::toSec(t) * 1e12 /* pJ */;
        };
        return {pj(leakagePowerNw(), now),
                pj(listenPowerNw,
                   energest.ticks(obs::Comp::RadioListen, now))};
    }

    /** The whole-node ledger as of now(): ledger plus staticPj(). */
    energy::EnergyLedger
    energy() const
    {
        energy::EnergyLedger l = ledger;
        const StaticPj s = staticPj();
        l.add(energy::Cat::Leakage, s.leakage);
        l.add(energy::Cat::Radio, s.listen);
        return l;
    }

    /**
     * Mirror energy() into the metrics registry (gauges
     * "energy.<cat>_pj", handler attribution "handler.<ev>.pj").
     */
    void
    publishEnergyMetrics()
    {
        if (!energyGauges_[0]) {
            sim::MetricName name;
            for (std::size_t c = 0; c < energy::kNumCats; ++c)
                energyGauges_[c] = &metrics.gauge(name(
                    "energy.",
                    energy::catName(static_cast<energy::Cat>(c)), "_pj"));
            for (std::size_t s = 0; s < kHandlerSlots; ++s) {
                const std::string_view ev =
                    s == kBootSlot ? "boot"
                                   : isa::eventName(
                                         static_cast<isa::EventNum>(s));
                handlerPjGauges_[s] =
                    &metrics.gauge(name("handler.", ev, ".pj"));
            }
        }
        const energy::EnergyLedger l = energy();
        for (std::size_t c = 0; c < energy::kNumCats; ++c)
            energyGauges_[c]->set(l.pj(static_cast<energy::Cat>(c)));
        for (std::size_t s = 0; s < kHandlerSlots; ++s)
            handlerPjGauges_[s]->set(handlerPj_[s]);
    }

    /**
     * Publish the occupancy gauges every node shape shares: words in
     * the r15 message FIFOs ("msg.in_occupancy", "msg.out_occupancy")
     * and armed timer registers ("timer.armed").
     */
    void
    publishOccupancy(std::size_t msgIn, std::size_t msgOut,
                     unsigned timersArmed)
    {
        if (!occupancyGauges_[0]) {
            occupancyGauges_ = {&metrics.gauge("msg.in_occupancy"),
                                &metrics.gauge("msg.out_occupancy"),
                                &metrics.gauge("timer.armed")};
        }
        occupancyGauges_[0]->set(double(msgIn));
        occupancyGauges_[1]->set(double(msgOut));
        occupancyGauges_[2]->set(double(timersArmed));
    }

    /** @name Snapshot support (src/snapshot/)
     * The accounting scalars behind charge(), saved and poked back
     * verbatim at restore. Restored last, after the respawned
     * processes have re-run their (tracer-detached) entry
     * bookkeeping, so any re-charged energy is overwritten. */
    ///@{
    const std::array<double, kHandlerSlots> &
    handlerPjAll() const
    {
        return handlerPj_;
    }
    void
    restoreAccounting(double chargedPj,
                      const std::array<double, kHandlerSlots> &perHandler)
    {
        chargedPj_ = chargedPj;
        handlerPj_ = perHandler;
    }
    ///@}

  private:
    template <std::size_t... I>
    static std::array<sim::TraceScope, sizeof...(I)>
    makeEnergyScopes(sim::Kernel &k, std::index_sequence<I...>)
    {
        return {sim::TraceScope(
            k, "energy." +
                   std::string(energy::catName(
                       static_cast<energy::Cat>(I))))...};
    }

    double chargedPj_ = 0.0;
    std::array<double, kHandlerSlots> handlerPj_{};
    /** One trace scope per ledger category ("energy.<cat>"). */
    std::array<sim::TraceScope, energy::kNumCats> energyScopes_;
    /** Published instruments, looked up on the first sample. */
    std::array<sim::MetricGauge *, energy::kNumCats> energyGauges_{};
    std::array<sim::MetricGauge *, kHandlerSlots> handlerPjGauges_{};
    std::array<sim::MetricGauge *, 3> occupancyGauges_{};
};

} // namespace snaple::core

#endif // SNAPLE_CORE_CONTEXT_HH
