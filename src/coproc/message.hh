/**
 * @file
 * The message coprocessor (paper section 3.3, Figure 3).
 *
 * All core I/O flows through the two 16-bit FIFOs mapped to r15. The
 * coprocessor interprets command words from the incoming FIFO (RX / TX
 * / Query / Idle), serializes transmit data to the radio word by word
 * (raising a RadioTxRdy event when the transmitter can take the next
 * word), assembles received words into the outgoing FIFO (raising
 * RadioRx events), samples sensors on Query commands (SensorData
 * events), and converts external sensor interrupts into SensorIrq
 * event tokens — which is how SNAP/LE gets away without any interrupt
 * support in the core.
 */

#ifndef SNAPLE_COPROC_MESSAGE_HH
#define SNAPLE_COPROC_MESSAGE_HH

#include <array>
#include <cstdint>

#include "core/context.hh"
#include "core/ports.hh"
#include "coproc/io_ports.hh"
#include "obs/energest.hh"
#include "sim/gate.hh"
#include "sim/trace.hh"

namespace snaple::coproc {

/** The radio/sensor message coprocessor. */
class MessageCoproc
{
  public:
    static constexpr std::size_t kMaxSensors = 16;

    /**
     * Where the command process is parked (snapshot support). Every
     * phase except Busy is a stable wait a checkpoint can capture:
     * the process is suspended at exactly one await whose
     * continuation is a dedicated tail coroutine, so a restored node
     * respawns the process directly into that tail. Busy covers the
     * command micro-delay and never survives to a checkpoint — an
     * in-flight delay resume fails the shard's pending-event
     * accounting and defers the checkpoint to the next barrier.
     */
    enum class CmdPhase : std::uint8_t
    {
        Idle,      ///< parked at the command FIFO recv
        Busy,      ///< mid-command (micro-delay in flight)
        ReplySend, ///< carrier/RSSI reply blocked on the out FIFO
        TxData,    ///< TX armed, parked for the data word
        TxWait,    ///< word on the air, parked on the TX gate
        QueryWait, ///< sensor converting, parked on the query gate
        QuerySend, ///< sensor value blocked on the out FIFO
    };

    /** Where the receive process is parked (snapshot support). */
    enum class RxPhase : std::uint8_t
    {
        Idle, ///< parked at the radio RX FIFO recv
        Send, ///< received word blocked on the out FIFO
    };

    /** Serialized process state (src/snapshot/). */
    struct SavedState
    {
        std::uint8_t cmdPhase = 0;
        std::uint8_t rxPhase = 0;
        std::uint16_t pendingWord = 0;
        std::uint16_t rxWord = 0;
        sim::Tick waitEnd = 0;
        std::uint64_t waitSeq = 0;
        std::uint8_t waitArg = 0;
        std::uint64_t cmdStamp = 0;
        std::uint64_t rxStamp = 0;
        std::uint64_t blockSeq = 0;
    };

    /** Snapshot view of the registry-native counters ("msg.*"). */
    struct Stats
    {
        std::uint64_t commands = 0;
        std::uint64_t txWords = 0;
        std::uint64_t rxWords = 0;
        std::uint64_t queries = 0;
        std::uint64_t interrupts = 0;
        std::uint64_t eventsDropped = 0;
    };

    MessageCoproc(core::NodeContext &ctx, core::WordFifo &msg_in,
                  core::WordFifo &msg_out, core::EventQueue &event_queue);

    MessageCoproc(const MessageCoproc &) = delete;
    MessageCoproc &operator=(const MessageCoproc &) = delete;

    /** Attach the node's radio (at most one). */
    void attachRadio(RadioPort &radio);

    /** Attach a sensor under a Query-addressable id. */
    void attachSensor(unsigned id, SensorPort &sensor);

    /** Attach the node's energest duty ledger (src/obs/energest.hh):
     *  accrues Msg ticks while a command is mid-flight and Sensor
     *  ticks while a conversion runs. Optional; purely observational. */
    void setEnergest(obs::Energest *e) { energest_ = e; }

    /** Spawn the command and receive processes. */
    void start();

    /**
     * Signal the external-interrupt pin (passive sensing): inserts a
     * SensorIrq event token.
     */
    void raiseSensorInterrupt();

    /** Counters live in ctx.metrics; this assembles a snapshot. */
    Stats
    stats() const
    {
        return Stats{commands_->value(),   txWords_->value(),
                     rxWords_->value(),    queries_->value(),
                     interrupts_->value(), eventsDropped_->value()};
    }

    /** @name Snapshot support (src/snapshot/) */
    ///@{
    CmdPhase cmdPhase() const { return phase_; }
    /** Pending kernel events this coprocessor owns (the gate-open
     *  timers of TxWait/QueryWait) — part of the shard's
     *  checkpoint-eligibility accounting. */
    std::size_t
    pendingKernelEvents() const
    {
        return (phase_ == CmdPhase::TxWait ||
                phase_ == CmdPhase::QueryWait)
                   ? 1
                   : 0;
    }
    /** Serialize the parked process state; fatal while Busy. */
    SavedState saveState(bool frozen = false) const;
    /** Poke saved state back (before startRestored()). */
    void restoreState(const SavedState &s);
    /**
     * Respawn the processes directly into their saved parked phases.
     * When both processes are blocked sending to the outgoing FIFO,
     * the smaller block stamp respawns first so the FIFO's waiter
     * order — and hence wake-up order — is reproduced.
     */
    void startRestored();
    /** Re-schedule the saved gate-open event (restore re-arm phase,
     *  called in recorded-seq order across the whole node). */
    void rearmWait();
    ///@}

  private:
    sim::Co<void> commandProcess(CmdPhase entry);
    sim::Co<void> rxProcess(RxPhase entry);
    sim::Co<void> replyTail();
    sim::Co<void> txData();
    sim::Co<void> txFinish();
    sim::Co<void> queryFinish();
    sim::Co<void> querySendTail();
    sim::Co<void> rxSendTail();
    void armWait(CmdPhase ph, sim::Tick end, std::uint8_t arg = 0);
    void pushEvent(isa::EventNum e);

    core::NodeContext &ctx_;
    core::WordFifo &msgIn_;
    core::WordFifo &msgOut_;
    core::EventQueue &eventQueue_;
    sim::TraceScope trace_;
    sim::WarnRateLimiter dropWarn_;
    RadioPort *radio_ = nullptr;
    obs::Energest *energest_ = nullptr;
    std::array<SensorPort *, kMaxSensors> sensors_{};
    sim::TickGate gate_;      ///< TxWait/QueryWait wake-up point
    CmdPhase phase_ = CmdPhase::Idle;
    RxPhase rxPhase_ = RxPhase::Idle;
    std::uint16_t pendingWord_ = 0; ///< reply / sensor value in hand
    std::uint16_t rxWord_ = 0;      ///< received word in hand
    sim::Tick waitEnd_ = 0;         ///< gate-open tick (abs)
    std::uint64_t waitSeq_ = 0;     ///< gate-open event's kernel seq
    std::uint8_t waitArg_ = 0;      ///< QueryWait sensor id
    /** Monotone stamps ordering this node's blocked out-FIFO sends. */
    std::uint64_t blockSeq_ = 0;
    std::uint64_t cmdStamp_ = 0;
    std::uint64_t rxStamp_ = 0;
    /** Registry-native counters — visible to metrics sampling even
     *  with no trace sink attached, unlike the TokenDrop trace. */
    sim::MetricCounter *commands_;
    sim::MetricCounter *txWords_;
    sim::MetricCounter *rxWords_;
    sim::MetricCounter *queries_;
    sim::MetricCounter *interrupts_;
    sim::MetricCounter *eventsDropped_;
};

} // namespace snaple::coproc

#endif // SNAPLE_COPROC_MESSAGE_HH
