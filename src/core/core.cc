#include "core/core.hh"

#include <cstdio>

#include "core/instr_cost.hh"

namespace snaple::core {

using energy::Cat;
using isa::AluFn;
using isa::DecodedInst;
using isa::EventFn;
using isa::InstrClass;
using isa::JmpFn;
using isa::Op;
using isa::SysFn;
using isa::TimerFn;
using isa::Unit;
using sim::Co;
using sim::Tick;

// The constructor and destructor live in fast_core.cc, where the
// opaque FastTier (behind the unique_ptr member) is a complete type.

void
SnapCore::start(FidelityMode fidelity)
{
    fidelity_ = fidelity;
    spawnExecutor();
}

void
SnapCore::spawnExecutor()
{
    if (fidelity_ == FidelityMode::Fast) {
        ctx_.kernel.spawn(fastProcess(), "fast");
    } else {
        ctx_.kernel.spawn(fetchProcess(), "fetch");
        ctx_.kernel.spawn(executeProcess(), "execute");
    }
}

std::uint16_t
SnapCore::reg(unsigned i) const
{
    sim::fatalIf(i >= isa::kNumPhysRegs, "reg index out of range: ", i);
    return regs_[i];
}

void
SnapCore::setReg(unsigned i, std::uint16_t v)
{
    sim::fatalIf(i >= isa::kNumPhysRegs, "reg index out of range: ", i);
    regs_[i] = v;
}

std::uint16_t
SnapCore::handler(isa::EventNum e) const
{
    return handlerTable_[static_cast<std::size_t>(e)];
}

void
SnapCore::setHandler(isa::EventNum e, std::uint16_t addr)
{
    handlerTable_[static_cast<std::size_t>(e)] = addr;
}

Co<void>
SnapCore::fetchProcess()
{
    std::uint16_t pc = 0;
    if (restoredAsleep_) {
        // Respawned from a snapshot of a sleeping core: park at the
        // event wait as if we had just executed `done`.
        pc = co_await awaitDispatch();
    } else {
        beginBoot();
    }
    for (;;) {
        // Fetch (and minimally predecode) one instruction.
        co_await ctx_.kernel.delay(ctx_.gd(ctx_.tcal.fetchCycleGd));
        ctx_.charge(Cat::Fetch, ctx_.ecal.fetchPerWordPj);
        ctx_.charge(Cat::MemIf, ctx_.ecal.memIfPerWordPj);
        std::uint16_t word = co_await imem_.read(pc);
        ++stats_.wordsFetched;
        traceFetch_.emit(sim::TraceEvent::CoreFetch, pc, word);

        DecodedInst d = isa::decodeAt(word, pc, imem_.words());
        std::uint16_t pc_next = static_cast<std::uint16_t>(pc + 1);
        if (d.twoWord) {
            co_await ctx_.kernel.delay(ctx_.gd(ctx_.tcal.fetchCycleGd));
            ctx_.charge(Cat::Fetch, ctx_.ecal.fetchPerWordPj);
            ctx_.charge(Cat::MemIf, ctx_.ecal.memIfPerWordPj);
            d.imm = co_await imem_.read(pc_next);
            ++stats_.wordsFetched;
            traceFetch_.emit(sim::TraceEvent::CoreFetch, pc_next, d.imm);
            pc_next = static_cast<std::uint16_t>(pc_next + 1);
        }

        // Execute rejects an illegal word and never resolves it: fetch
        // waits as after a control instruction.
        const bool control = d.isControl() || !d.legal;
        co_await fetchQ_.send(InstPacket{d, pc_next});
        if (!control) {
            pc = pc_next;
            continue;
        }

        // Non-speculative: wait for the execute process to resolve.
        Redirect r = co_await redirect_.recv();
        switch (r.kind) {
          case Redirect::Kind::Goto:
            pc = r.pc;
            break;
          case Redirect::Kind::Halt:
            enterHalt();
            co_return;
          case Redirect::Kind::Done:
            pc = co_await awaitDispatch();
            break;
        }
    }
}

void
SnapCore::beginBoot()
{
    stats_.lastWake = ctx_.kernel.now();
    segStart_ = stats_.lastWake;
    lastRetireTick_ = stats_.lastWake;
    lastRetirePj_ = ctx_.chargedPj();
}

void
SnapCore::enterHalt()
{
    halted_ = true;
    const sim::Tick now = ctx_.kernel.now();
    stats_.handlerTicks[slotOf(currentEvent_)] += now - segStart_;
    stats_.activeTime += now - stats_.lastWake;
    if (ctx_.cfg.stopOnHalt)
        ctx_.kernel.stop();
}

Co<std::uint16_t>
SnapCore::awaitDispatch()
{
    // End of handler: return to the event queue. With no pending
    // token all switching activity ceases — SNAP/LE's single,
    // zero-power sleep state.
    //
    // The restored-asleep entry skips the whole sleep-entry block:
    // the original run did that bookkeeping before the snapshot and
    // it is all captured in the serialized Stats. Only the wake half
    // still has to run here.
    const bool restored = restoredAsleep_;
    restoredAsleep_ = false;
    const bool sleeping = restored || eventQueue_.empty();
    Tick slept_at = ctx_.kernel.now();
    if (!restored)
        stats_.handlerTicks[slotOf(currentEvent_)] +=
            slept_at - segStart_;
    if (sleeping && !restored) {
        asleep_ = true;
        ++stats_.sleeps;
        stats_.lastSleepStart = slept_at;
        stats_.activeTime += slept_at - stats_.lastWake;
        // Background charges while asleep (e.g. leakage samples) are
        // nobody's handler.
        ctx_.activeHandler = 0xff;
        traceFetch_.emit(sim::TraceEvent::CoreSleep);
        if (recordTimeline_) {
            timeline_.push_back(
                ActivitySpan{stats_.lastWake, slept_at, currentEvent_});
        }
    }
    EventToken tok = co_await eventQueue_.recv();
    if (sleeping) {
        asleep_ = false;
        ++stats_.wakeups;
        stats_.lastWake = ctx_.kernel.now();
        traceFetch_.emit(sim::TraceEvent::CoreWake, tok.num);
    }
    {
        // Enqueue-to-dispatch wait: how long the token sat in the
        // hardware queue (plus the wake propagation).
        const Tick dispatched = ctx_.kernel.now();
        const Tick waited =
            dispatched >= tok.at ? dispatched - tok.at : 0;
        evqWaitAll_->record(waited);
        if (tok.num < isa::kNumEvents)
            evqWait_[tok.num]->record(waited);
    }
    currentEvent_ = tok.num;
    ctx_.activeHandler = tok.num;
    segStart_ = ctx_.kernel.now();
    lastRetireTick_ = segStart_;
    lastRetirePj_ = ctx_.chargedPj();
    ++stats_.perEvent[tok.num].activations;
    traceFetch_.emit(sim::TraceEvent::CoreHandler, tok.num);
    // Handler-table dispatch.
    ctx_.charge(Cat::Fetch, ctx_.ecal.eventDispatchPj);
    co_await ctx_.kernel.delay(ctx_.gd(4));
    ++stats_.handlers;
    sim::fatalIf(tok.num >= isa::kNumEvents, "bad event token ",
                 int(tok.num));
    const std::uint16_t pc = handlerTable_[tok.num];
    if (commitSink_) {
        ref::CommitRecord disp;
        disp.kind = ref::CommitKind::Dispatch;
        disp.event = tok.num;
        disp.pc = pc;
        commitSink_->commit(disp);
    }
    co_return pc;
}

void
SnapCore::illegalInstruction(std::uint16_t pc, std::uint16_t word)
{
    char hex[8];
    std::snprintf(hex, sizeof hex, "0x%04x", word);
    sim::fatal("illegal instruction at pc ", pc, " (word ", hex, ")");
}

void
SnapCore::checkTimerReg(std::uint16_t reg)
{
    sim::fatalIf(reg > 2, "timer register out of range: ", reg);
}

void
SnapCore::checkEventNum(std::uint16_t event)
{
    sim::fatalIf(event >= isa::kNumEvents, "setaddr event out of range: ",
                 event);
}

sim::Kernel::DelayAwaiter
SnapCore::regReadDelay()
{
    ctx_.charge(Cat::Datapath, ctx_.ecal.regReadPj);
    return ctx_.kernel.delay(ctx_.gd(ctx_.tcal.regReadGd));
}

sim::Kernel::DelayAwaiter
SnapCore::regWriteDelay()
{
    ctx_.charge(Cat::Datapath, ctx_.ecal.regWritePj);
    return ctx_.kernel.delay(ctx_.gd(ctx_.tcal.regWriteGd));
}

sim::Kernel::DelayAwaiter
SnapCore::busTransfer(Unit u)
{
    const OpCost c = busCost(ctx_, u);
    ctx_.charge(Cat::Datapath, c.pj);
    return ctx_.kernel.delay(ctx_.gd(c.gd));
}

sim::Kernel::DelayAwaiter
SnapCore::unitOp(Unit u)
{
    const OpCost c = unitCost(ctx_, u);
    ctx_.charge(Cat::Datapath, c.pj);
    return ctx_.kernel.delay(ctx_.gd(c.gd));
}

Co<void>
SnapCore::executeProcess()
{
    for (;;) {
        InstPacket p = co_await fetchQ_.recv();
        const DecodedInst &d = p.inst;
        const auto pc =
            static_cast<std::uint16_t>(p.pcNext - (d.twoWord ? 2 : 1));

        co_await ctx_.kernel.delay(ctx_.gd(ctx_.tcal.decodeGd));
        ctx_.charge(Cat::Decode, ctx_.ecal.decodePj);
        ctx_.charge(Cat::Misc, ctx_.ecal.miscPj);

        ref::CommitRecord rec; // populated along the way, committed
                               // at retirement when a sink is attached

        std::uint16_t vd = 0;
        std::uint16_t vs = 0;
        // Operand reads, inlined to stay frame-free: r15 dequeues the
        // message coprocessor's outgoing FIFO (the core stalls while
        // it is empty, section 3.3); every other register is a plain
        // register-file read.
        if (d.readsRd) {
            if (d.rd == isa::kMsgReg) {
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                vd = co_await msgOut_.recv();
                rec.fifoRead[rec.fifoReads++] = vd;
            } else {
                co_await regReadDelay();
                vd = regs_[d.rd];
            }
        }
        if (d.readsRs) {
            if (d.rs == isa::kMsgReg) {
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                vs = co_await msgOut_.recv();
                rec.fifoRead[rec.fifoReads++] = vs;
            } else {
                co_await regReadDelay();
                vs = regs_[d.rs];
            }
        }
        if (!d.legal) // after the operand reads, if it has any
            illegalInstruction(pc, d.word());

        const bool unit = usesUnit(d);
        if (unit) {
            co_await busTransfer(d.unit); // operands to the unit
            co_await unitOp(d.unit);
        }

        bool write_result = d.writesRd;
        std::uint16_t result = 0;
        Redirect redir;
        bool send_redirect = false;

        auto set_arith = [&](std::uint32_t wide) {
            carry_ = (wide >> 16) & 1;
            result = static_cast<std::uint16_t>(wide);
        };

        switch (d.op) {
          case Op::AluR:
          case Op::AluI: {
            const std::uint16_t b = (d.op == Op::AluI) ? d.imm : vs;
            switch (d.aluFn()) {
              case AluFn::Add:
                set_arith(std::uint32_t(vd) + b);
                break;
              case AluFn::Addc:
                set_arith(std::uint32_t(vd) + b + (carry_ ? 1 : 0));
                break;
              case AluFn::Sub:
                // Subtraction as vd + ~b + 1; carry is "no borrow".
                set_arith(std::uint32_t(vd) + (~b & 0xffffu) + 1);
                break;
              case AluFn::Subc:
                set_arith(std::uint32_t(vd) + (~b & 0xffffu) +
                          (carry_ ? 1 : 0));
                break;
              case AluFn::And: result = vd & b; break;
              case AluFn::Or: result = vd | b; break;
              case AluFn::Xor: result = vd ^ b; break;
              case AluFn::Not: result = ~b; break;
              case AluFn::Sll:
                result = static_cast<std::uint16_t>(vd << (b & 15));
                break;
              case AluFn::Srl:
                result = static_cast<std::uint16_t>(vd >> (b & 15));
                break;
              case AluFn::Sra:
                result = static_cast<std::uint16_t>(
                    static_cast<std::int16_t>(vd) >> (b & 15));
                break;
              case AluFn::Mov: result = b; break;
              case AluFn::Neg:
                result = static_cast<std::uint16_t>(-b);
                break;
              case AluFn::Rand: result = lfsr_.next(); break;
              case AluFn::Seed: lfsr_.seed(vs); break;
            }
            break;
          }
          case Op::Ldw:
            result = co_await dmem_.read(
                static_cast<std::uint16_t>(vs + d.imm));
            break;
          case Op::Stw:
            co_await dmem_.write(static_cast<std::uint16_t>(vs + d.imm),
                                 vd);
            rec.memWrite = true;
            rec.memAddr = static_cast<std::uint16_t>(vs + d.imm);
            rec.memValue = vd;
            break;
          case Op::Ldi:
            result = co_await imem_.read(
                static_cast<std::uint16_t>(vs + d.imm));
            break;
          case Op::Sti:
            co_await imem_.write(static_cast<std::uint16_t>(vs + d.imm),
                                 vd);
            rec.memWrite = true;
            rec.memIsImem = true;
            rec.memAddr = static_cast<std::uint16_t>(vs + d.imm);
            rec.memValue = vd;
            break;
          case Op::Beqz:
          case Op::Bnez:
          case Op::Bltz:
          case Op::Bgez: {
            const std::int16_t sv = static_cast<std::int16_t>(vd);
            bool taken = false;
            switch (d.op) {
              case Op::Beqz: taken = (vd == 0); break;
              case Op::Bnez: taken = (vd != 0); break;
              case Op::Bltz: taken = (sv < 0); break;
              case Op::Bgez: taken = (sv >= 0); break;
              default: break;
            }
            redir.kind = Redirect::Kind::Goto;
            redir.pc = taken ? static_cast<std::uint16_t>(p.pcNext +
                                                          d.off8)
                             : p.pcNext;
            send_redirect = true;
            break;
          }
          case Op::Jmp:
            redir.kind = Redirect::Kind::Goto;
            switch (d.jmpFn()) {
              case JmpFn::Jmp:
                redir.pc = d.imm;
                break;
              case JmpFn::Jal:
                result = p.pcNext;
                redir.pc = d.imm;
                break;
              case JmpFn::Jr:
                redir.pc = vs;
                break;
              case JmpFn::Jalr:
                result = p.pcNext;
                redir.pc = vs;
                break;
            }
            send_redirect = true;
            break;
          case Op::Bfs:
            result = static_cast<std::uint16_t>((vd & ~d.imm) |
                                                (vs & d.imm));
            break;
          case Op::Timer: {
            checkTimerReg(vd);
            co_await timerPort_.send(
                TimerCmd{d.timerFn(), static_cast<std::uint8_t>(vd), vs});
            rec.timerCmd = true;
            rec.timerFn = static_cast<std::uint8_t>(d.timerFn());
            rec.timerReg = static_cast<std::uint8_t>(vd);
            rec.timerValue = vs;
            break;
          }
          case Op::Event:
            if (d.eventFn() == EventFn::Done) {
                redir.kind = Redirect::Kind::Done;
                send_redirect = true;
            } else {
                checkEventNum(vd);
                handlerTable_[vd] = vs;
            }
            break;
          case Op::Sys:
            switch (d.sysFn()) {
              case SysFn::Nop:
                break;
              case SysFn::Halt:
                redir.kind = Redirect::Kind::Halt;
                send_redirect = true;
                break;
              case SysFn::DbgOut:
                debugOut_.push_back(vd);
                break;
            }
            break;
          default:
            sim::panic("unreachable opcode in execute");
        }

        if (unit)
            co_await busTransfer(d.unit); // result back / completion

        // Result write-back, inlined like the operand reads: r15
        // enqueues into the message coprocessor's incoming FIFO.
        if (write_result) {
            if (d.rd == isa::kMsgReg) {
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                co_await msgIn_.send(result);
                rec.fifoWrite = true;
                rec.fifoWriteValue = result;
            } else {
                co_await regWriteDelay();
                regs_[d.rd] = result;
                rec.regWrite = true;
                rec.regIndex = static_cast<std::uint8_t>(d.rd);
                rec.regValue = result;
            }
        }

        ++stats_.instructions;
        ++stats_.perClass[static_cast<std::size_t>(d.cls)];
        {
            // Attribute wall time and dynamic energy since the last
            // retirement to this instruction's class and, when
            // profiling, to its (pc, handler) cell.
            const Tick tnow = ctx_.kernel.now();
            const double pjnow = ctx_.chargedPj();
            const Tick dt = tnow - lastRetireTick_;
            const double dpj = pjnow - lastRetirePj_;
            stats_.perClassTicks[static_cast<std::size_t>(d.cls)] += dt;
            stats_.perClassPj[static_cast<std::size_t>(d.cls)] += dpj;
            if (!profile_.empty() && pc < ctx_.cfg.imemWords) {
                ProfSlot &s = profile_[std::size_t(pc) *
                                           NodeContext::kHandlerSlots +
                                       slotOf(currentEvent_)];
                ++s.count;
                s.ticks += dt;
                s.pj += dpj;
            }
            lastRetireTick_ = tnow;
            lastRetirePj_ = pjnow;
        }
        if (currentEvent_ < isa::kNumEvents)
            ++stats_.perEvent[currentEvent_].instructions;
        traceExec_.emit(sim::TraceEvent::CoreExec, d.word(),
                        static_cast<std::uint64_t>(d.cls));
        if (commitSink_) {
            rec.pc = pc;
            rec.word = d.word();
            rec.imm = d.imm;
            rec.carry = carry_;
            commitSink_->commit(rec);
        }

        if (send_redirect)
            co_await redirect_.send(redir);

        if (d.op == Op::Sys && d.sysFn() == SysFn::Halt)
            co_return;
    }
}

void
SnapCore::enableProfile(bool on)
{
    if (!on) {
        profile_.clear();
        profile_.shrink_to_fit();
        return;
    }
    profile_.assign(ctx_.cfg.imemWords * NodeContext::kHandlerSlots,
                    ProfSlot{});
}

std::vector<sim::ProfileRow>
SnapCore::profileRows() const
{
    std::vector<sim::ProfileRow> rows;
    if (profile_.empty())
        return rows;
    for (std::size_t s = 0; s < NodeContext::kHandlerSlots; ++s) {
        const std::string_view handler =
            s == NodeContext::kBootSlot
                ? std::string_view("boot")
                : isa::eventName(static_cast<isa::EventNum>(s));
        for (std::size_t pc = 0; pc < ctx_.cfg.imemWords; ++pc) {
            const ProfSlot &cell =
                profile_[pc * NodeContext::kHandlerSlots + s];
            if (cell.count == 0)
                continue;
            rows.push_back(sim::ProfileRow{
                handler, static_cast<std::uint16_t>(pc), cell.count,
                cell.ticks, cell.pj});
        }
    }
    return rows;
}

void
SnapCore::bindMetrics()
{
    sim::MetricsRegistry &m = ctx_.metrics;
    sim::MetricName name;
    pub_.instructions = &m.counter("core.instructions");
    pub_.wordsFetched = &m.counter("core.words_fetched");
    pub_.handlers = &m.counter("core.handlers");
    pub_.sleeps = &m.counter("core.sleeps");
    pub_.wakeups = &m.counter("core.wakeups");
    pub_.activeTicks = &m.counter("core.active_ticks");
    pub_.dutyCycle = &m.gauge("core.duty_cycle", sim::GaugeMerge::Mean);
    for (std::size_t c = 0; c < isa::kNumClasses; ++c) {
        const std::string slug =
            isa::classSlug(static_cast<isa::InstrClass>(c));
        pub_.classCount[c] = &m.counter(name("core.class.", slug));
        pub_.classTicks[c] =
            &m.counter(name("core.class.", slug, ".ticks"));
        pub_.classPj[c] = &m.gauge(name("core.class.", slug, ".pj"));
    }
    pub_.evqAccepted = &m.counter("core.evq.accepted");
    pub_.evqDropped = &m.counter("core.evq.dropped");
    pub_.evqOccupancy = &m.gauge("core.evq.occupancy");
    for (std::size_t e = 0; e < isa::kNumEvents; ++e) {
        const std::string_view ev =
            isa::eventName(static_cast<isa::EventNum>(e));
        pub_.activations[e] =
            &m.counter(name("handler.", ev, ".activations"));
        pub_.handlerInstructions[e] =
            &m.counter(name("handler.", ev, ".instructions"));
        pub_.handlerTicks[e] = &m.counter(name("handler.", ev, ".ticks"));
    }
    pub_.handlerTicks[NodeContext::kBootSlot] =
        &m.counter("handler.boot.ticks");
}

void
SnapCore::publishMetrics()
{
    if (!pub_.instructions)
        bindMetrics();
    const Tick now = ctx_.kernel.now();

    pub_.instructions->set(stats_.instructions);
    pub_.wordsFetched->set(stats_.wordsFetched);
    pub_.handlers->set(stats_.handlers);
    pub_.sleeps->set(stats_.sleeps);
    pub_.wakeups->set(stats_.wakeups);
    pub_.activeTicks->set(activeTimeNow());
    pub_.dutyCycle->set(now ? double(activeTimeNow()) / double(now)
                            : 0.0);

    for (std::size_t c = 0; c < isa::kNumClasses; ++c) {
        pub_.classCount[c]->set(stats_.perClass[c]);
        pub_.classTicks[c]->set(stats_.perClassTicks[c]);
        pub_.classPj[c]->set(stats_.perClassPj[c]);
    }

    pub_.evqAccepted->set(eventQueue_.accepted());
    pub_.evqDropped->set(eventQueue_.dropped());
    pub_.evqOccupancy->set(double(eventQueue_.size()));

    // Per-handler attribution; the running handler's open segment is
    // added on the fly so samples mid-handler stay monotone.
    auto ticks = stats_.handlerTicks;
    if (!halted_ && !asleep_)
        ticks[slotOf(currentEvent_)] += now - segStart_;
    for (std::size_t e = 0; e < isa::kNumEvents; ++e) {
        pub_.activations[e]->set(stats_.perEvent[e].activations);
        pub_.handlerInstructions[e]->set(stats_.perEvent[e].instructions);
    }
    for (std::size_t s = 0; s < NodeContext::kHandlerSlots; ++s)
        pub_.handlerTicks[s]->set(ticks[s]);
}

} // namespace snaple::core
