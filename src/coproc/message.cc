#include "coproc/message.hh"

namespace snaple::coproc {

using core::msgcmd::isQuery;
using core::msgcmd::kIdle;
using core::msgcmd::kRx;
using core::msgcmd::kTx;
using core::msgcmd::querySensor;
using energy::Cat;

/** Sensor (ADC-style) conversion time of a Query command. */
constexpr sim::Tick kSensorConvTime = 10 * sim::kMicrosecond;

MessageCoproc::MessageCoproc(core::NodeContext &ctx,
                             core::WordFifo &msg_in,
                             core::WordFifo &msg_out,
                             core::EventQueue &event_queue)
    : ctx_(ctx), msgIn_(msg_in), msgOut_(msg_out),
      eventQueue_(event_queue), trace_(ctx.kernel, "msg-coproc"),
      commands_(&ctx.metrics.counter("msg.commands")),
      txWords_(&ctx.metrics.counter("msg.tx_words")),
      rxWords_(&ctx.metrics.counter("msg.rx_words")),
      queries_(&ctx.metrics.counter("msg.queries")),
      interrupts_(&ctx.metrics.counter("msg.interrupts")),
      eventsDropped_(&ctx.metrics.counter("msg.events_dropped"))
{}

void
MessageCoproc::attachRadio(RadioPort &radio)
{
    sim::panicIf(radio_ != nullptr, "radio already attached");
    radio_ = &radio;
}

void
MessageCoproc::attachSensor(unsigned id, SensorPort &sensor)
{
    sim::fatalIf(id >= kMaxSensors, "sensor id out of range: ", id);
    sim::panicIf(sensors_[id] != nullptr, "sensor id already in use");
    sensors_[id] = &sensor;
}

void
MessageCoproc::start()
{
    ctx_.kernel.spawn(commandProcess(CmdPhase::Idle), "msg-coproc-cmd");
    if (radio_)
        ctx_.kernel.spawn(rxProcess(RxPhase::Idle), "msg-coproc-rx");
}

void
MessageCoproc::raiseSensorInterrupt()
{
    interrupts_->inc();
    pushEvent(isa::EventNum::SensorIrq);
}

void
MessageCoproc::pushEvent(isa::EventNum e)
{
    core::EventToken tok{static_cast<std::uint8_t>(e),
                         ctx_.kernel.now()};
    if (!eventQueue_.tryPush(tok)) {
        // A dropped token means the core never hears about this event
        // (a received message, a sensor reading): trace and warn rather
        // than losing it silently.
        eventsDropped_->inc();
        const std::uint64_t dropped = eventsDropped_->value();
        trace_.emit(sim::TraceEvent::TokenDrop, tok.num, dropped);
        if (dropWarn_.shouldReport(dropped))
            sim::warn("msg-coproc: hardware event queue full, event ",
                      unsigned(tok.num), " dropped (", dropped,
                      " dropped so far)");
    }
}

void
MessageCoproc::armWait(CmdPhase ph, sim::Tick end, std::uint8_t arg)
{
    waitEnd_ = end;
    waitArg_ = arg;
    phase_ = ph;
    scheduleWait();
    // A QueryWait is the ADC conversion running: the sensor is the
    // busy component until queryFinish() samples it.
    if (ph == CmdPhase::QueryWait)
        ctx_.energest.set(obs::Comp::Sensor, true, ctx_.kernel.now());
}

// Every multi-await command continuation below is a dedicated tail
// coroutine. Co<> awaits use symmetric transfer — no kernel events,
// no traces — so factoring them out is behaviorally invisible to a
// straight run, while a restored node can respawn the command process
// directly into the tail matching its saved phase and continue
// bit-exactly (src/snapshot/).

/** Carrier/RSSI reply: pendingWord_ out through the FIFO. */
sim::Co<void>
MessageCoproc::replyTail()
{
    cmdStamp_ = ++blockSeq_;
    phase_ = CmdPhase::ReplySend;
    co_await msgOut_.send(pendingWord_);
}

/** TX command armed: take the data word and put it on the air. */
sim::Co<void>
MessageCoproc::txData()
{
    phase_ = CmdPhase::TxData;
    std::uint16_t data = co_await msgIn_.recv();
    {
        const double pj = ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
        ctx_.energest.addPj(obs::Comp::Msg, pj);
    }
    txWords_->inc();
    trace_.emit(sim::TraceEvent::MsgTx, data);
    radio_->setMode(RadioMode::Tx);
    armWait(CmdPhase::TxWait, radio_->transmitStart(data));
    co_await txFinish();
}

/** Word on the air: wait out the airtime, then signal the core. */
sim::Co<void>
MessageCoproc::txFinish()
{
    co_await gate_.wait();
    // The transmitter can take the next word.
    pushEvent(isa::EventNum::RadioTxRdy);
}

/** Conversion timer running: sample, then reply with the value. */
sim::Co<void>
MessageCoproc::queryFinish()
{
    co_await gate_.wait();
    ctx_.energest.set(obs::Comp::Sensor, false, ctx_.kernel.now());
    std::uint16_t v = sensors_[waitArg_]->query(ctx_.kernel.now());
    const double pj = ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
    ctx_.energest.addPj(obs::Comp::Sensor, pj);
    pendingWord_ = v;
    co_await querySendTail();
}

/** Sensor value in hand: out through the FIFO, then the event. */
sim::Co<void>
MessageCoproc::querySendTail()
{
    cmdStamp_ = ++blockSeq_;
    phase_ = CmdPhase::QuerySend;
    co_await msgOut_.send(pendingWord_);
    pushEvent(isa::EventNum::SensorData);
}

sim::Co<void>
MessageCoproc::commandProcess(CmdPhase entry)
{
    switch (entry) {
      case CmdPhase::Idle:
      case CmdPhase::Busy:
        break;
      case CmdPhase::ReplySend:
        co_await replyTail();
        break;
      case CmdPhase::TxData:
        co_await txData();
        break;
      case CmdPhase::TxWait:
        co_await txFinish();
        break;
      case CmdPhase::QueryWait:
        co_await queryFinish();
        break;
      case CmdPhase::QuerySend:
        co_await querySendTail();
        break;
    }
    for (;;) {
        phase_ = CmdPhase::Idle;
        ctx_.energest.set(obs::Comp::Msg, false, ctx_.kernel.now());
        std::uint16_t w = co_await msgIn_.recv();
        phase_ = CmdPhase::Busy;
        ctx_.energest.set(obs::Comp::Msg, true, ctx_.kernel.now());
        commands_->inc();
        trace_.emit(sim::TraceEvent::MsgCommand, w);
        {
            const double pj =
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgCommandPj);
            ctx_.energest.addPj(obs::Comp::Msg, pj);
        }
        co_await ctx_.kernel.delay(ctx_.gd(4));

        if (w == kRx) {
            sim::fatalIf(!radio_, "RX command with no radio attached");
            radio_->setMode(RadioMode::Rx);
        } else if (w == kIdle) {
            sim::fatalIf(!radio_, "Idle command with no radio attached");
            radio_->setMode(RadioMode::Idle);
        } else if (w == core::msgcmd::kCarrier) {
            // Carrier sense for the MAC's CSMA: reply synchronously
            // through the outgoing FIFO (no event token). The reply
            // word is computed *before* the send can block — it must
            // reflect the channel at command time, not at whatever
            // later tick the FIFO drains.
            sim::fatalIf(!radio_, "carrier sense with no radio");
            ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
            pendingWord_ = radio_->channelBusy() ? 1 : 0;
            co_await replyTail();
        } else if (w == core::msgcmd::kRssi) {
            // Signal strength of the last accepted word, replied
            // synchronously like carrier sense. 0 on media without a
            // signal-strength model (io_ports.hh has the encoding).
            sim::fatalIf(!radio_, "RSSI read with no radio");
            ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
            pendingWord_ = radio_->lastRssi();
            co_await replyTail();
        } else if (w == core::msgcmd::kFlow) {
            // Explicit flow open/close for the side-band tracer
            // (src/obs/flow.hh), replied synchronously like carrier
            // sense: the new flow id's low 16 bits on open, 0xffff on
            // close. Observability only — no radio state changes.
            sim::fatalIf(!radio_, "flow command with no radio");
            ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
            pendingWord_ = radio_->flowCommand();
            co_await replyTail();
        } else if (w == kTx) {
            sim::fatalIf(!radio_, "TX command with no radio attached");
            co_await txData();
        } else if (isQuery(w)) {
            unsigned id = querySensor(w);
            sim::fatalIf(!sensors_[id], "query of unattached sensor ",
                         id);
            queries_->inc();
            // ADC-style conversion time before the value is ready.
            armWait(CmdPhase::QueryWait,
                    ctx_.kernel.now() + kSensorConvTime,
                    static_cast<std::uint8_t>(id));
            co_await queryFinish();
        } else {
            sim::fatal("unknown message-coprocessor command word 0x",
                       std::hex, w);
        }
    }
}

/** Received word in hand: out through the FIFO, then the event. */
sim::Co<void>
MessageCoproc::rxSendTail()
{
    rxStamp_ = ++blockSeq_;
    rxPhase_ = RxPhase::Send;
    co_await msgOut_.send(rxWord_);
    pushEvent(isa::EventNum::RadioRx);
}

sim::Co<void>
MessageCoproc::rxProcess(RxPhase entry)
{
    if (entry == RxPhase::Send)
        co_await rxSendTail();
    for (;;) {
        rxPhase_ = RxPhase::Idle;
        std::uint16_t w = co_await radio_->rxWords().recv();
        rxWords_->inc();
        trace_.emit(sim::TraceEvent::MsgRx, w);
        {
            const double pj =
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
            ctx_.energest.addPj(obs::Comp::Msg, pj);
        }
        rxWord_ = w;
        co_await rxSendTail();
    }
}

MessageCoproc::SavedState
MessageCoproc::saveState(bool frozen) const
{
    sim::fatalIf(!frozen && phase_ == CmdPhase::Busy,
                 "snapshot of a mid-command message coprocessor "
                 "(eligibility should have deferred this barrier)");
    SavedState s;
    s.cmdPhase = static_cast<std::uint8_t>(phase_);
    s.rxPhase = static_cast<std::uint8_t>(rxPhase_);
    s.pendingWord = pendingWord_;
    s.rxWord = rxWord_;
    s.waitEnd = waitEnd_;
    s.waitSeq = waitSeq_;
    s.waitArg = waitArg_;
    s.cmdStamp = cmdStamp_;
    s.rxStamp = rxStamp_;
    s.blockSeq = blockSeq_;
    return s;
}

void
MessageCoproc::restoreState(const SavedState &s)
{
    sim::fatalIf(s.cmdPhase >
                     static_cast<std::uint8_t>(CmdPhase::QuerySend) ||
                     s.cmdPhase ==
                         static_cast<std::uint8_t>(CmdPhase::Busy),
                 "snapshot: bad message-coprocessor command phase");
    sim::fatalIf(s.rxPhase > static_cast<std::uint8_t>(RxPhase::Send),
                 "snapshot: bad message-coprocessor rx phase");
    phase_ = static_cast<CmdPhase>(s.cmdPhase);
    rxPhase_ = static_cast<RxPhase>(s.rxPhase);
    pendingWord_ = s.pendingWord;
    rxWord_ = s.rxWord;
    waitEnd_ = s.waitEnd;
    waitSeq_ = s.waitSeq;
    waitArg_ = s.waitArg;
    cmdStamp_ = s.cmdStamp;
    rxStamp_ = s.rxStamp;
    blockSeq_ = s.blockSeq;
}

void
MessageCoproc::startRestored()
{
    const CmdPhase cmdEntry = phase_;
    const RxPhase rxEntry = rxPhase_;
    // When both processes re-park in a blocked send to the outgoing
    // FIFO, spawn order sets waiter registration order; the saved
    // stamps say who blocked first in the original run. (The tails
    // re-stamp on entry, in spawn order, so relative order is
    // preserved for the next block too.)
    const bool cmdBlocked = cmdEntry == CmdPhase::ReplySend ||
                            cmdEntry == CmdPhase::QuerySend;
    const bool rxFirst = radio_ && rxEntry == RxPhase::Send &&
                         cmdBlocked && rxStamp_ < cmdStamp_;
    if (rxFirst)
        ctx_.kernel.spawn(rxProcess(rxEntry), "msg-coproc-rx");
    ctx_.kernel.spawn(commandProcess(cmdEntry), "msg-coproc-cmd");
    if (radio_ && !rxFirst)
        ctx_.kernel.spawn(rxProcess(rxEntry), "msg-coproc-rx");
}

void
MessageCoproc::scheduleWait()
{
    sim::panicIf(phase_ != CmdPhase::TxWait &&
                     phase_ != CmdPhase::QueryWait,
                 "scheduleWait outside a gated wait");
    ctx_.kernel.schedule(waitEnd_, [this] { gate_.open(); });
    waitSeq_ = ctx_.kernel.lastScheduledSeq();
}

} // namespace snaple::coproc
