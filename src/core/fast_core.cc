/**
 * @file
 * The fast fidelity tier: one process executing predecoded
 * instructions natively and charging statistical time/energy.
 *
 * Architectural semantics come from the predecoded engine
 * (ref/predecode.hh), driven here by an Env bound to the live core:
 * real register file, real memories, real coprocessor FIFOs. The CHP
 * fetch/execute pair is replaced by a single coroutine that runs up to
 * kFlushBudget instructions per kernel slice and then settles the
 * books: per-instruction-class counts are converted to one delay and a
 * handful of ledger charges through the CoreConfig calibration table
 * (energy/class_cal.hh). Books are also settled before anything
 * externally visible — an r15 FIFO access, a timer command, the event
 * wait at `done` — so inter-node interactions happen at statistically
 * correct times.
 *
 * With a commit sink attached the core emits the same per-instruction
 * and dispatch ref::CommitRecords as the cycle tier, so the snap_diff
 * lockstep harness checks this Env against the golden model. Env is
 * templated on whether it commits: the instantiation is picked per
 * slice, and a run without a sink compiles the record-building away.
 *
 * Deliberately not modeled at this tier: per-instruction trace events
 * (CoreFetch/CoreExec) and the per-PC flat profile.
 */

#include "core/core.hh"

#include <algorithm>

#include "ref/predecode.hh"

namespace snaple::core {

using energy::Cat;
using sim::Co;
using sim::Tick;

namespace {

/** Instructions executed per kernel slice between settlements. */
constexpr std::uint64_t kFlushBudget = 1024;

/** Depth of the cycle tier's fetch-to-execute instruction queue. */
constexpr std::size_t kFetchQueueDepth = 2;

/** Statistics class of each fused opcode (PKind order). */
constexpr isa::InstrClass
classOfKind(ref::pre::PKind k)
{
    using K = ref::pre::PKind;
    using C = isa::InstrClass;
    switch (k) {
      case K::AddR: case K::SubR: case K::AddcR: case K::SubcR:
      case K::MovR: case K::NegR:
        return C::ArithReg;
      case K::AndR: case K::OrR: case K::XorR: case K::NotR:
        return C::LogicalReg;
      case K::SllR: case K::SrlR: case K::SraR:
        return C::Shift;
      case K::AddI: case K::SubI: case K::AddcI: case K::SubcI:
      case K::MovI:
        return C::ArithImm;
      case K::AndI: case K::OrI: case K::XorI:
        return C::LogicalImm;
      case K::SllI: case K::SrlI: case K::SraI:
        return C::ShiftImm;
      case K::Ldw: return C::Load;
      case K::Stw: return C::Store;
      case K::Ldi: return C::LoadI;
      case K::Sti: return C::StoreI;
      case K::Beqz: case K::Bnez: case K::Bltz: case K::Bgez:
        return C::Branch;
      case K::JmpI: case K::Jal: case K::Jr: case K::Jalr:
        return C::Jump;
      case K::Bfs: return C::BitField;
      case K::RandR: case K::SeedR: return C::Rand;
      case K::Timer: return C::Timer;
      case K::Done: case K::SetAddr: return C::EventCtl;
      case K::Nop: case K::Halt: case K::Dbgout: return C::Sys;
      default: return C::Sys; // AluBad/Invalid never retire
    }
}

} // namespace

/** Fast-tier working state, opaque to core.hh. */
struct SnapCore::FastTier
{
    /** Which engine I/O is waiting on the process loop. */
    enum class StallKind : std::uint8_t
    {
        None,
        R15Read,
        R15Write,
        Timer,
    };

    std::vector<ref::pre::PLine> lines;
    std::uint16_t pc = 0;

    // Stall-stash protocol: the engine mutates no architectural state
    // before a stalled I/O, so the process loop performs the blocking
    // operation, records its result here, and re-enters the engine,
    // which re-executes the instruction and consumes the result.
    StallKind stallKind = StallKind::None;
    bool ioDone = false;          ///< pending write/timer completed
    std::uint16_t pendingWord = 0;
    TimerCmd pendingTimer{};
    /** r15 words already dequeued for the stalled instruction, in
     *  program order; cleared at every retirement. */
    std::vector<std::uint16_t> replay;
    std::size_t replayCursor = 0;

    // Per-class retirement counts since the last settlement.
    std::array<std::uint64_t, isa::kNumClasses> counts{};
    std::uint64_t words = 0;
    std::uint64_t instrs = 0;

    /**
     * Settle the accumulated counts: charge each class's calibrated
     * per-category energy, accumulate the Stats mirrors, and return
     * the total pipeline-occupancy delay to sleep for.
     */
    Tick
    flush(SnapCore &c)
    {
        Tick total = 0;
        for (std::size_t k = 0; k < isa::kNumClasses; ++k) {
            const std::uint64_t n = counts[k];
            if (n == 0)
                continue;
            const energy::ClassCost &cc = c.ctx_.cfg.classCal->cost[k];
            const double before = c.ctx_.chargedPj();
            for (std::size_t cat = 0; cat < energy::kNumCats; ++cat)
                if (cc.pj[cat] != 0)
                    c.ctx_.charge(static_cast<Cat>(cat),
                                  double(n) * cc.pj[cat]);
            const Tick t = c.ctx_.gd(double(n) * cc.gd);
            c.stats_.perClass[k] += n;
            c.stats_.perClassTicks[k] += t;
            c.stats_.perClassPj[k] += c.ctx_.chargedPj() - before;
            total += t;
            counts[k] = 0;
        }
        c.stats_.instructions += instrs;
        if (c.currentEvent_ < isa::kNumEvents)
            c.stats_.perEvent[c.currentEvent_].instructions += instrs;
        instrs = 0;
        c.stats_.wordsFetched += words;
        words = 0;
        return total;
    }

    /**
     * The predecoded engine's environment, bound to the live core.
     * With Commit set it also builds one ref::CommitRecord per
     * retirement into the core's commit sink; a stalled instruction
     * rebuilds its record when it re-executes.
     */
    template <bool Commit>
    struct Env
    {
        SnapCore &c;
        FastTier &t;
        ref::CommitRecord rec{};

        std::uint16_t *regs() { return c.regs_.data(); }
        std::uint16_t *handlers() { return c.handlerTable_.data(); }
        std::uint16_t *imem() { return c.imem_.data(); }
        std::uint16_t *dmem() { return c.dmem_.data(); }
        ref::pre::PLine *lines() { return t.lines.data(); }
        std::uint16_t pc() { return t.pc; }
        void setPc(std::uint16_t v) { t.pc = v; }
        bool carry() { return c.carry_; }
        void setCarry(bool v) { c.carry_ = v; }
        std::uint16_t lfsr() { return c.lfsr_.state(); }
        void setLfsr(std::uint16_t v) { c.lfsr_.seed(v); }

        void
        beginInstr(std::uint16_t pc, const ref::pre::PLine &ln)
        {
            t.replayCursor = 0;
            if constexpr (Commit) {
                rec = ref::CommitRecord{};
                rec.pc = pc;
                rec.word = ln.word;
                rec.imm = ln.imm;
            }
        }

        bool
        readR15(std::uint16_t &v)
        {
            if (t.replayCursor < t.replay.size()) {
                v = t.replay[t.replayCursor++];
                if constexpr (Commit)
                    rec.fifoRead[rec.fifoReads++] = v;
                return true;
            }
            t.stallKind = StallKind::R15Read;
            return false;
        }

        bool
        writeR15(std::uint16_t v)
        {
            if (t.ioDone) {
                t.ioDone = false;
                if constexpr (Commit) {
                    rec.fifoWrite = true;
                    rec.fifoWriteValue = v;
                }
                return true;
            }
            t.pendingWord = v;
            t.stallKind = StallKind::R15Write;
            return false;
        }

        bool
        timerCmd(std::uint8_t fn, std::uint8_t reg, std::uint16_t v)
        {
            if (t.ioDone) {
                t.ioDone = false;
                if constexpr (Commit) {
                    rec.timerCmd = true;
                    rec.timerFn = fn;
                    rec.timerReg = reg;
                    rec.timerValue = v;
                }
                return true;
            }
            t.pendingTimer =
                TimerCmd{static_cast<isa::TimerFn>(fn), reg, v};
            t.stallKind = StallKind::Timer;
            return false;
        }

        void
        noteRegWrite(unsigned idx, std::uint16_t v)
        {
            if constexpr (Commit) {
                rec.regWrite = true;
                rec.regIndex = static_cast<std::uint8_t>(idx);
                rec.regValue = v;
            }
        }

        void
        noteMemWrite(bool isImem, std::uint16_t a, std::uint16_t v)
        {
            if constexpr (Commit) {
                rec.memWrite = true;
                rec.memIsImem = isImem;
                rec.memAddr = a;
                rec.memValue = v;
            }
        }

        void dbgout(std::uint16_t v) { c.debugOut_.push_back(v); }

        void
        retire(const ref::pre::PLine &ln, bool carry)
        {
            ++t.counts[static_cast<std::size_t>(classOfKind(ln.kind))];
            t.words += ln.len;
            ++t.instrs;
            t.replay.clear();
            t.stallKind = StallKind::None;
            if constexpr (Commit) {
                rec.carry = carry;
                c.commitSink_->commit(rec);
            }
        }
    };
};

// Constructor and destructor are out of line here because the
// unique_ptr<FastTier> member needs FastTier complete to instantiate
// its deleter.
SnapCore::SnapCore(NodeContext &ctx, mem::Sram &imem, mem::Sram &dmem,
                   EventQueue &event_queue, WordFifo &msg_in,
                   WordFifo &msg_out, TimerPort &timer_port,
                   std::string name)
    : ctx_(ctx), imem_(imem), dmem_(dmem), eventQueue_(event_queue),
      msgIn_(msg_in), msgOut_(msg_out), timerPort_(timer_port),
      fetchQ_(ctx.kernel, kFetchQueueDepth, 0, name + ".fetchq"),
      redirect_(ctx.kernel, 0, name + ".redirect"),
      traceFetch_(ctx.kernel, name + ".fetch"),
      traceExec_(ctx.kernel, name + ".exec"),
      evqWaitAll_(&ctx.metrics.histogram("core.evq_wait_ticks"))
{
    sim::MetricName metric;
    for (std::size_t e = 0; e < isa::kNumEvents; ++e)
        evqWait_[e] = &ctx.metrics.histogram(
            metric("core.evq_wait_ticks.",
                   isa::eventName(static_cast<isa::EventNum>(e))));
}

SnapCore::~SnapCore() = default;

// saveState/restoreState also live here: they touch fast_->pc, which
// needs FastTier complete.

SnapCore::SavedState
SnapCore::saveState(bool frozen) const
{
    sim::fatalIf(!frozen && !halted_ && !asleep_,
                 "snapshot of a running core (eligibility should have "
                 "deferred this barrier)");
    SavedState s;
    s.regs = regs_;
    s.carry = carry_;
    s.lfsr = lfsr_.state();
    s.handlerTable = handlerTable_;
    s.halted = halted_;
    s.asleep = asleep_;
    s.currentEvent = currentEvent_;
    s.fidelity = static_cast<std::uint8_t>(fidelity_);
    s.fastPc = fast_ ? fast_->pc : 0;
    s.recordTimeline = recordTimeline_;
    s.debugOut = debugOut_;
    s.timeline = timeline_;
    s.stats = stats_;
    s.profiling = profileEnabled();
    for (std::size_t i = 0; i < profile_.size(); ++i) {
        const ProfSlot &cell = profile_[i];
        if (cell.count == 0)
            continue;
        s.profile.push_back(ProfileCell{
            static_cast<std::uint16_t>(i / NodeContext::kHandlerSlots),
            static_cast<std::uint8_t>(i % NodeContext::kHandlerSlots),
            cell.count, cell.ticks, cell.pj});
    }
    return s;
}

void
SnapCore::restoreState(const SavedState &s)
{
    sim::fatalIf(s.fidelity > 1, "snapshot: bad core fidelity mode");
    sim::fatalIf(s.currentEvent != 0xff &&
                     s.currentEvent >= isa::kNumEvents,
                 "snapshot: bad current event");
    regs_ = s.regs;
    carry_ = s.carry;
    lfsr_.seed(s.lfsr);
    handlerTable_ = s.handlerTable;
    halted_ = s.halted;
    asleep_ = s.asleep;
    currentEvent_ = s.currentEvent;
    fidelity_ = static_cast<FidelityMode>(s.fidelity);
    recordTimeline_ = s.recordTimeline;
    debugOut_ = s.debugOut;
    timeline_ = s.timeline;
    stats_ = s.stats;
    // Whether profiling is on is a restore knob, set by the host and
    // checked against s.profiling by name (ParallelNetwork::restore);
    // the cells are checked here.
    std::fill(profile_.begin(), profile_.end(), ProfSlot{});
    for (const ProfileCell &c : s.profile) {
        sim::fatalIf(!profileEnabled() || c.pc >= ctx_.cfg.imemWords ||
                         c.slot >= NodeContext::kHandlerSlots,
                     "snapshot: bad profile cell (pc ", c.pc, ", slot ",
                     unsigned(c.slot), ")");
        profile_[std::size_t(c.pc) * NodeContext::kHandlerSlots +
                 c.slot] = ProfSlot{c.count, c.ticks, c.pj};
    }
    if (fidelity_ == FidelityMode::Fast) {
        if (!fast_) {
            fast_ = std::make_unique<FastTier>();
            fast_->lines.resize(ref::pre::kMemWords);
        }
        fast_->pc = s.fastPc;
    }
}

void
SnapCore::startRestored()
{
    if (halted_)
        return;
    sim::panicIf(!asleep_, "startRestored on a running core");
    restoredAsleep_ = true;
    spawnExecutor();
}

Co<void>
SnapCore::fastProcess()
{
    sim::fatalIf(imem_.words() != ref::pre::kMemWords ||
                     dmem_.words() != ref::pre::kMemWords,
                 "fast fidelity requires the architected ",
                 ref::pre::kMemWords, "-word memory banks (imem ",
                 imem_.words(), ", dmem ", dmem_.words(), ")");
    // The class-cal table prices the split fast/slow buses; a flat-bus
    // node would silently run at their cost.
    sim::fatalIf(ctx_.cfg.flatBus,
                 "fast fidelity cannot model flatBus; use cycle fidelity");
    if (!fast_) {
        fast_ = std::make_unique<FastTier>();
        fast_->lines.resize(ref::pre::kMemWords);
    }
    FastTier &ft = *fast_;
    if (restoredAsleep_) {
        // Respawned from a snapshot of a sleeping core: park at the
        // event wait. ft.pc is dead state while asleep (the dispatch
        // overwrites it with the handler pc) and the predecoded lines
        // start empty, rebuilding lazily and deterministically.
        ft.pc = co_await awaitDispatch();
    } else {
        beginBoot();
    }
    FastTier::Env<false> env{*this, ft};
    FastTier::Env<true> commitEnv{*this, ft};
    for (;;) {
        // Chosen per slice: a sink attached mid-run takes effect at
        // the next slice.
        const ref::pre::PStop stop =
            commitSink_ ? ref::pre::runPredecoded(commitEnv, kFlushBudget)
                        : ref::pre::runPredecoded(env, kFlushBudget);
        const Tick cost = ft.flush(*this);
        if (cost)
            co_await ctx_.kernel.delay(cost);
        switch (stop) {
          case ref::pre::PStop::StepLimit:
            break; // books settled; keep executing
          case ref::pre::PStop::Stall:
            switch (ft.stallKind) {
              case FastTier::StallKind::R15Read: {
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                const std::uint16_t w = co_await msgOut_.recv();
                ft.replay.push_back(w);
                break;
              }
              case FastTier::StallKind::R15Write:
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                co_await msgIn_.send(ft.pendingWord);
                ft.ioDone = true;
                break;
              case FastTier::StallKind::Timer:
                co_await timerPort_.send(ft.pendingTimer);
                ft.ioDone = true;
                break;
              case FastTier::StallKind::None:
                sim::panic("fast tier: stall without pending I/O");
            }
            ft.stallKind = FastTier::StallKind::None;
            break;
          case ref::pre::PStop::Done:
            ft.pc = co_await awaitDispatch();
            break;
          case ref::pre::PStop::Halt:
            enterHalt();
            co_return;
          case ref::pre::PStop::DecodeError:
            sim::fatal("fast tier: illegal instruction at pc ", ft.pc,
                       " (word ", imem_.peek(ft.pc), ")");
        }
    }
}

} // namespace snaple::core
