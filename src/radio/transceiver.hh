/**
 * @file
 * TR1000-class radio transceiver model.
 *
 * The interface matches section 3.3: mode control (idle / receive /
 * transmit), a word-serial transmit path whose completion time is set
 * by the 19.2 kbps air rate, and a receive path that assembles words
 * for the message coprocessor. Radio energy is charged to the Radio
 * ledger category at the transceiver's own (fixed, off-chip) supply —
 * it does not scale with the core voltage.
 */

#ifndef SNAPLE_RADIO_TRANSCEIVER_HH
#define SNAPLE_RADIO_TRANSCEIVER_HH

#include <cstdint>

#include "coproc/io_ports.hh"
#include "core/context.hh"
#include "obs/flow.hh"
#include "radio/medium.hh"
#include "sim/channel.hh"

namespace snaple::radio {

// RFM TR1000 air and electrical parameters.
inline constexpr double kBitrateBps = 19200.0; ///< OOK air rate of the motes
inline constexpr unsigned kWordBits = 16;      ///< word-serial interface width

// Energy per word on the air, in picojoules, from the TR1000 datasheet
// operating points at 3 V: TX ~12 mA (36 mW), RX ~3.8 mA (11.4 mW);
// one word takes kWordBits / kBitrateBps = 833 us.
inline constexpr double kTxPjPerWord = 30.0e6;
inline constexpr double kRxPjPerWord = 9.5e6;

/**
 * Continuous receive-mode (idle listening) power, nanowatts. TR1000
 * RX draws ~3.8 mA at 3 V ~ 11.4 mW whether or not bits arrive — in
 * real deployments this, not computation, dominates unless the MAC
 * duty-cycles the receiver. Priced at read time over the node's
 * energest Rx ticks (NodeContext::staticPj()).
 */
inline constexpr double kRxListenNw = 11.4e6;

struct RadioConfig
{
    /**
     * Model the self-powered MEMS RF link of the paper's
     * introduction and future work ([13]): the radio draws nothing
     * from the node's battery, shifting the entire energy budget to
     * computation. Timing is unchanged.
     */
    bool selfPowered = false;
};

/** One node's transceiver. */
class Transceiver : public coproc::RadioPort
{
  public:
    /** Snapshot view of the registry-native counters ("radio.*"). */
    struct Stats
    {
        std::uint64_t txWords = 0;
        std::uint64_t rxWords = 0;
        std::uint64_t rxDroppedFifoFull = 0;
        std::uint64_t rxMissedWrongMode = 0;
    };

    Transceiver(core::NodeContext &ctx, Medium &medium,
                const RadioConfig &cfg = {},
                std::size_t rx_fifo_depth = 8)
        : ctx_(ctx), medium_(medium), cfg_(cfg),
          rxFifo_(ctx.kernel, rx_fifo_depth, 0, "radio-rx"),
          txWords_(&ctx.metrics.counter("radio.tx_words")),
          rxWords_(&ctx.metrics.counter("radio.rx_words")),
          rxDroppedFifoFull_(
              &ctx.metrics.counter("radio.rx_dropped_fifo_full")),
          rxMissedWrongMode_(
              &ctx.metrics.counter("radio.rx_missed_wrong_mode"))
    {
        ctx_.listenPowerNw = cfg_.selfPowered ? 0.0 : kRxListenNw;
        accrueRadioDuty();
        medium_.attach(this);
    }

    /** Airtime of one word at the TR1000 bit rate. */
    static sim::Tick
    wordAirtime()
    {
        return sim::fromSec(kWordBits / kBitrateBps);
    }

    /**
     * Attach the node's side-band flow tracker (src/obs/flow.hh).
     * Transmissions are tagged and accepted deliveries latched from
     * then on; without a tracker the transceiver sends invalid tags.
     */
    void setFlowTracker(obs::FlowTracker *t) { flow_ = t; }

    // RadioPort interface -------------------------------------------
    void
    setMode(coproc::RadioMode mode) override
    {
        mode_ = mode;
        accrueRadioDuty();
    }

    sim::Tick
    transmitStart(std::uint16_t word) override
    {
        txWords_->inc();
        const double pj = cfg_.selfPowered ? 0.0 : kTxPjPerWord;
        ctx_.ledger.add(energy::Cat::Radio, pj);
        ctx_.energest.addPj(obs::Comp::RadioTx, pj);
        // Tag the word before it reaches the medium: the medium reads
        // lastTxTag() while building its flight record.
        lastTxTag_ = flow_ ? flow_->onTransmit(word, ctx_.kernel.now(), pj)
                           : obs::FlowTag{};
        medium_.beginTransmit(this, word, wordAirtime());
        // The serial interface is busy for the full word airtime.
        return ctx_.kernel.now() + wordAirtime();
    }

    sim::Fifo<std::uint16_t> &rxWords() override { return rxFifo_; }

    /** CSMA sense, from this receiver's position in field mode
     *  (out-of-range transmissions are inaudible). */
    bool channelBusy() const override { return medium_.busyFor(this); }

    /** RSSI of the last accepted word (io_ports.hh: the half-dB
     *  encoding); 0 until a word arrives in field mode. */
    std::uint16_t lastRssi() const override { return lastRssi_; }

    /** Explicit-flow toggle (msgcmd::kFlow), see io_ports.hh. */
    std::uint16_t
    flowCommand() override
    {
        return flow_ ? flow_->command() : 0;
    }

    // Medium-side interface ------------------------------------------
    /**
     * Deliver a word that arrived over the air, with the medium's
     * receiver-side signal strength (0 = unknown). Returns what this
     * receiver did with the word so the medium can count deliveries
     * it actually made, not merely offered.
     */
    DeliverStatus
    deliver(std::uint16_t word, std::uint16_t rssi = 0,
            const obs::FlowTag &tag = {})
    {
        if (mode_ != coproc::RadioMode::Rx) {
            rxMissedWrongMode_->inc();
            return DeliverStatus::DroppedMode;
        }
        if (!cfg_.selfPowered) {
            ctx_.ledger.add(energy::Cat::Radio, kRxPjPerWord);
            ctx_.energest.addPj(obs::Comp::RadioListen, kRxPjPerWord);
        }
        if (!rxFifo_.tryPush(word)) {
            rxDroppedFifoFull_->inc();
            return DeliverStatus::DroppedFifo;
        }
        rxWords_->inc();
        lastRssi_ = rssi;
        // Only an *accepted* word latches the flow context: a word
        // the node never saw cannot causally link its transmissions.
        if (flow_)
            flow_->onReceive(tag, ctx_.kernel.now());
        return DeliverStatus::Accepted;
    }

    /** Tag of the most recent transmitStart() (medium-side read). */
    const obs::FlowTag &lastTxTag() const { return lastTxTag_; }

    coproc::RadioMode mode() const { return mode_; }

    /** Counters live in ctx.metrics; this assembles a snapshot. */
    Stats
    stats() const
    {
        return Stats{txWords_->value(), rxWords_->value(),
                     rxDroppedFifoFull_->value(),
                     rxMissedWrongMode_->value()};
    }

    sim::Kernel &kernel() const { return ctx_.kernel; }

    /** @name Snapshot support (src/snapshot/) */
    ///@{
    /** Poke mode/RSSI back without side effects. */
    void
    restoreState(coproc::RadioMode mode, std::uint16_t lastRssi)
    {
        mode_ = mode;
        lastRssi_ = lastRssi;
    }
    ///@}

  private:
    /** Mirror mode_ into the energest radio component states. */
    void
    accrueRadioDuty()
    {
        obs::Energest &e = ctx_.energest;
        const sim::Tick now = ctx_.kernel.now();
        e.set(obs::Comp::RadioTx, mode_ == coproc::RadioMode::Tx, now);
        e.set(obs::Comp::RadioListen, mode_ == coproc::RadioMode::Rx,
              now);
        e.set(obs::Comp::RadioOff, mode_ == coproc::RadioMode::Idle,
              now);
    }

    core::NodeContext &ctx_;
    Medium &medium_;
    RadioConfig cfg_;
    coproc::RadioMode mode_ = coproc::RadioMode::Idle;
    std::uint16_t lastRssi_ = 0;
    obs::FlowTracker *flow_ = nullptr;
    obs::FlowTag lastTxTag_;
    sim::Fifo<std::uint16_t> rxFifo_;
    /** Registry-native counters in the node's metrics registry. */
    sim::MetricCounter *txWords_;
    sim::MetricCounter *rxWords_;
    sim::MetricCounter *rxDroppedFifoFull_;
    sim::MetricCounter *rxMissedWrongMode_;
};

} // namespace snaple::radio

#endif // SNAPLE_RADIO_TRANSCEIVER_HH
