/**
 * @file
 * The fast fidelity tier: one process executing predecoded
 * instructions natively and pricing them exactly.
 *
 * Architectural semantics come from the predecoded engine
 * (core/predecode.hh), driven here by an Env bound to the live core:
 * real register file, real memories, real coprocessor FIFOs. The CHP
 * fetch/execute pair is replaced by a single coroutine. Each line is
 * priced once, when it is predecoded (again after an `sti` over it),
 * by the cost function the cycle tier's charges follow
 * (core/instr_cost.hh). Each retirement advances the cycle tier's
 * two-process recurrence in absolute ticks: fetch runs ahead of
 * execute through the 2-deep fetch queue and waits for execute's
 * redirect after a control instruction.
 *
 * The process settles the books (energy to the ledger, time to the
 * kernel clock) after up to kFlushBudget instructions and before
 * anything externally visible: an r15 FIFO access or a timer command
 * happens at the tick the cycle tier's execute process would reach
 * it, and `done` and `halt` at the instruction's retirement. With no
 * r15 or timer traffic the tier is tick-exact;
 * tests/core/instr_cost_test.cc holds it to the cycle tier form by
 * form.
 *
 * With a commit sink attached the core emits the same per-instruction
 * and dispatch ref::CommitRecords as the cycle tier, so the snap_diff
 * lockstep harness checks this Env against the golden model. Env is
 * templated on whether it commits and whether it profiles: the
 * instantiation is picked per slice, and a run without a sink or a
 * profile compiles that work away.
 *
 * Deliberately not modeled at this tier: per-instruction trace events
 * (CoreFetch/CoreExec).
 */

#include "core/core.hh"

#include <algorithm>

#include "core/instr_cost.hh"
#include "core/predecode.hh"

namespace snaple::core {

using energy::Cat;
using sim::Co;
using sim::Tick;

namespace {

/** Instructions executed per kernel slice between settlements. */
constexpr std::uint64_t kFlushBudget = 1024;

/** Depth of the cycle tier's fetch-to-execute instruction queue. */
constexpr std::size_t kFetchQueueDepth = 2;

/**
 * The cycle tier's fetch/execute recurrence, in absolute ticks: fetch
 * runs ahead of execute through the fetch queue and, after a control
 * instruction, waits for execute's redirect. Dead while the core
 * sleeps, like the fast pc: restart() sets it at boot and at every
 * dispatch.
 */
struct Clock
{
    Tick fetchFree = 0; ///< fetch may start the next instruction
    Tick execFree = 0;  ///< execute retired the previous instruction
    /** When execute took the previous instruction, and the one
     *  before it, out of the fetch queue. */
    Tick taken1 = 0;
    Tick taken2 = 0;
    /** How far execute has got with the current instruction: when it
     *  took it, or when its last access completed. */
    Tick execAt = 0;
    std::uint8_t accessesDone = 0; ///< of the current instruction

    /** Fetch and execute both idle at @p now. */
    void
    restart(Tick now)
    {
        fetchFree = execFree = taken1 = taken2 = now;
        accessesDone = 0;
    }

    /** Fetch the current instruction, queue it and hand it to
     *  execute; returns when execute takes it. */
    Tick
    take(const InstrCost &k)
    {
        const Tick fetched = fetchFree + k.fetchTicks();
        // A full queue holds the deposit until execute takes the
        // instruction kFetchQueueDepth ahead of this one.
        static_assert(kFetchQueueDepth == 2);
        const Tick queued = std::max(fetched, taken2);
        const Tick start = std::max(execFree, queued);
        taken2 = taken1;
        taken1 = start;
        fetchFree = queued;
        return start;
    }

    /** The tick at which execute reaches the current instruction's
     *  next access. */
    Tick
    accessAt(const InstrCost &k)
    {
        if (accessesDone == 0)
            execAt = take(k);
        return execAt + k.exec[accessesDone];
    }

    /** The current instruction's pending access completed at @p now. */
    void
    accessed(Tick now)
    {
        execAt = now;
        ++accessesDone;
    }

    /** Retire the current instruction; returns its retirement tick. */
    Tick
    retire(const InstrCost &k)
    {
        if (accessesDone == 0)
            execAt = take(k);
        execFree = execAt + k.exec[accessesDone];
        if (k.control)
            fetchFree = execFree;
        accessesDone = 0;
        return execFree;
    }
};

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

    /** One distinct line cost at this node's operating point, with
     *  what its retirements added up since the last settlement. */
    struct Price
    {
        std::uint64_t retired = 0;
        Tick ticks = 0; ///< retire-to-retire, as Stats::perClassTicks
        InstrCost cost;
        double pj = 0; ///< cost.pj's total as charged
    };

    std::vector<pre::PLine> lines = std::vector<pre::PLine>(isa::kMemWords);
    /** Each predecoded line's index into prices. */
    std::vector<std::uint8_t> priceOf =
        std::vector<std::uint8_t>(isa::kMemWords, 0);
    /** The distinct prices of this node's lines, interned: a program
     *  uses a few dozen forms. prices[0] is the zero price of a line
     *  that never retires (an illegal encoding). */
    std::vector<Price> prices = std::vector<Price>(1);
    std::uint16_t pc = 0;
    Clock clock;

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
    /** The commit record being built, when a sink is attached. */
    ref::CommitRecord rec{};
    /** The out-of-range value the engine last stopped on. */
    std::uint16_t faultValue = 0;

    /** Price the line just predecoded at @p at from its form @p d. */
    void
    price(std::uint16_t at, isa::DecodedInst d,
          const NodeContext &ctx)
    {
        if (!d.legal) {
            priceOf[at] = 0;
            return;
        }
        const InstrCost c = instrCost(d, ctx);
        std::size_t i = 1;
        while (i < prices.size() && !(prices[i].cost == c))
            ++i;
        if (i == prices.size()) {
            sim::panicIf(i > 0xff, "fast tier: too many line prices");
            prices.push_back(Price{0, 0, c, ctx.scalePj(c.pjTotal())});
        }
        priceOf[at] = static_cast<std::uint8_t>(i);
    }

    /**
     * Settle the energy and counts of everything retired since the
     * last settlement: one ledger charge per category, and the Stats
     * mirrors. Time is settled by the caller.
     */
    void
    settle(SnapCore &c)
    {
        std::array<double, energy::kNumCats> pj{};
        std::uint64_t instrs = 0;
        for (Price &p : prices) {
            const std::uint64_t n = p.retired;
            if (n == 0)
                continue;
            for (std::size_t cat = 0; cat < energy::kNumCats; ++cat)
                pj[cat] += double(n) * p.cost.pj[cat];
            const auto cls = static_cast<std::size_t>(p.cost.cls);
            c.stats_.perClass[cls] += n;
            c.stats_.perClassTicks[cls] += p.ticks;
            c.stats_.perClassPj[cls] += double(n) * p.pj;
            c.stats_.wordsFetched += n * p.cost.words;
            instrs += n;
            p.retired = 0;
            p.ticks = 0;
        }
        for (std::size_t cat = 0; cat < energy::kNumCats; ++cat)
            if (pj[cat] != 0)
                c.ctx_.charge(static_cast<Cat>(cat), pj[cat]);
        c.stats_.instructions += instrs;
        if (c.currentEvent_ < isa::kNumEvents)
            c.stats_.perEvent[c.currentEvent_].instructions += instrs;
    }

    /**
     * The predecoded engine's environment, bound to the live core.
     * The recurrence and the last retirement are the Env's own
     * members: the engine runs on a copy of the Env, so they stay in
     * registers for the slice, and run() hands them back after it.
     * With Commit set it also builds one ref::CommitRecord per
     * retirement into the core's commit sink; a stalled instruction
     * rebuilds its record when it re-executes. With Profile set each
     * retirement also lands in its flat-profile cell.
     */
    template <bool Commit, bool Profile>
    struct Env
    {
        SnapCore *cp;
        FastTier *tp;
        /** Slice-local copies, written back after the slice. */
        Clock clock;
        Tick lastRetire = 0;     ///< SnapCore::lastRetireTick_
        double lastRetirePj = 0; ///< SnapCore::lastRetirePj_ (Profile)
        /** Charged-scale energy retired in this slice, which the
         *  profile's attribution counts as charged (Profile). */
        double pendingPj = 0;

        std::uint16_t *regs() { return cp->regs_.data(); }
        std::uint16_t *handlers() { return cp->handlerTable_.data(); }
        std::uint16_t *imem() { return cp->imem_.data(); }
        std::uint16_t *dmem() { return cp->dmem_.data(); }
        pre::PLine *lines() { return tp->lines.data(); }
        std::uint16_t pc() { return tp->pc; }
        void setPc(std::uint16_t v) { tp->pc = v; }
        bool carry() { return cp->carry_; }
        void setCarry(bool v) { cp->carry_ = v; }
        std::uint16_t lfsr() { return cp->lfsr_.state(); }
        void setLfsr(std::uint16_t v) { cp->lfsr_.seed(v); }

        void
        predecoded(std::uint16_t pc, isa::DecodedInst d)
        {
            tp->price(pc, d, cp->ctx_);
        }

        void
        beginInstr(std::uint16_t pc, const pre::PLine &ln)
        {
            tp->replayCursor = 0;
            if constexpr (Commit) {
                tp->rec = ref::CommitRecord{};
                tp->rec.pc = pc;
                tp->rec.word = ln.word;
                tp->rec.imm = ln.imm;
            }
        }

        bool
        readR15(std::uint16_t &v)
        {
            if (tp->replayCursor < tp->replay.size()) {
                v = tp->replay[tp->replayCursor++];
                if constexpr (Commit)
                    tp->rec.fifoRead[tp->rec.fifoReads++] = v;
                return true;
            }
            tp->stallKind = StallKind::R15Read;
            return false;
        }

        bool
        writeR15(std::uint16_t v)
        {
            if (tp->ioDone) {
                tp->ioDone = false;
                if constexpr (Commit) {
                    tp->rec.fifoWrite = true;
                    tp->rec.fifoWriteValue = v;
                }
                return true;
            }
            tp->pendingWord = v;
            tp->stallKind = StallKind::R15Write;
            return false;
        }

        bool
        timerCmd(std::uint8_t fn, std::uint8_t reg, std::uint16_t v)
        {
            if (tp->ioDone) {
                tp->ioDone = false;
                if constexpr (Commit) {
                    tp->rec.timerCmd = true;
                    tp->rec.timerFn = fn;
                    tp->rec.timerReg = reg;
                    tp->rec.timerValue = v;
                }
                return true;
            }
            tp->pendingTimer =
                TimerCmd{static_cast<isa::TimerFn>(fn), reg, v};
            tp->stallKind = StallKind::Timer;
            return false;
        }

        void
        noteRegWrite(unsigned idx, std::uint16_t v)
        {
            if constexpr (Commit) {
                tp->rec.regWrite = true;
                tp->rec.regIndex = static_cast<std::uint8_t>(idx);
                tp->rec.regValue = v;
            }
        }

        void
        noteMemWrite(bool isImem, std::uint16_t a, std::uint16_t v)
        {
            if constexpr (Commit) {
                tp->rec.memWrite = true;
                tp->rec.memIsImem = isImem;
                tp->rec.memAddr = a;
                tp->rec.memValue = v;
            }
        }

        void dbgout(std::uint16_t v) { cp->debugOut_.push_back(v); }

        void fault(std::uint16_t v) { tp->faultValue = v; }

        /**
         * Retire at the recurrence's tick and book the time since the
         * previous retirement (or dispatch) to the line's price. When
         * profiling, also book it and the energy charged since then,
         * counting what this slice has not charged yet, to the (pc,
         * handler) cell, as the cycle tier measures both. Inlined at
         * every one of the engine's retire sites, so the engine's copy
         * of the Env never has its address taken and the recurrence
         * stays in registers.
         */
        [[gnu::always_inline]] void
        retire(std::uint16_t pc, const pre::PLine &, bool carry)
        {
            Price &p = tp->prices[tp->priceOf[pc]];
            const Tick end = clock.retire(p.cost);
            const Tick dt = end - lastRetire;
            ++p.retired;
            p.ticks += dt;
            lastRetire = end;
            if constexpr (Profile) {
                pendingPj += p.pj;
                const double pjNow = cp->ctx_.chargedPj() + pendingPj;
                ProfSlot &s = cp->profile_[
                    std::size_t(pc) * NodeContext::kHandlerSlots +
                    cp->slotOf(cp->currentEvent_)];
                ++s.count;
                s.ticks += dt;
                s.pj += pjNow - lastRetirePj;
                lastRetirePj = pjNow;
            }
            tp->replay.clear();
            if constexpr (Commit) {
                tp->rec.carry = carry;
                cp->commitSink_->commit(tp->rec);
            }
        }
    };

    /** Stop the run on the engine's PStop::Fault through the check
     *  the cycle tier stops on, so both tiers print one message: the
     *  memory's address check for a load, a store or the pc itself,
     *  else the timer register or setaddr event check. */
    [[noreturn]] void
    raiseFault(SnapCore &c) const
    {
        if (pc < isa::kMemWords) {
            switch (lines[pc].kind) {
              case pre::PKind::Ldw:
              case pre::PKind::Stw:
                c.dmem_.peek(faultValue);
                break;
              case pre::PKind::Timer:
                checkTimerReg(faultValue);
                break;
              case pre::PKind::SetAddr:
                checkEventNum(faultValue);
                break;
              default: // ldi or sti
                break;
            }
        }
        c.imem_.peek(faultValue);
        sim::panic("fast tier: fault on in-range value ", faultValue,
                   " at pc ", pc);
    }

    /** Run one slice of the engine in environment Env<Commit, Profile>. */
    template <bool Commit, bool Profile>
    pre::PStop
    run(SnapCore &c)
    {
        Env<Commit, Profile> env{&c, this, clock, c.lastRetireTick_,
                                 c.lastRetirePj_};
        const pre::PStop stop = pre::runPredecoded(env, kFlushBudget);
        clock = env.clock;
        c.lastRetireTick_ = env.lastRetire;
        c.lastRetirePj_ = env.lastRetirePj;
        return stop;
    }

    /** Run one slice with the environment the core's commit sink and
     *  profile call for: chosen per slice, so a sink attached mid-run
     *  takes effect at the next slice. */
    pre::PStop
    runSlice(SnapCore &c)
    {
        const bool profile = c.profileEnabled();
        if (c.commitSink_)
            return profile ? run<true, true>(c) : run<true, false>(c);
        return profile ? run<false, true>(c) : run<false, false>(c);
    }
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
        if (!fast_)
            fast_ = std::make_unique<FastTier>();
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
    sim::fatalIf(imem_.words() != isa::kMemWords ||
                     dmem_.words() != isa::kMemWords,
                 "fast fidelity requires the architected ",
                 isa::kMemWords, "-word memory banks (imem ",
                 imem_.words(), ", dmem ", dmem_.words(), ")");
    if (!fast_)
        fast_ = std::make_unique<FastTier>();
    FastTier &ft = *fast_;
    if (restoredAsleep_) {
        // Respawned from a snapshot of a sleeping core: park at the
        // event wait. ft.pc and the recurrence are dead state while
        // asleep (the dispatch overwrites them) and the predecoded
        // lines start empty, rebuilding lazily and deterministically.
        ft.pc = co_await awaitDispatch();
    } else {
        beginBoot();
    }
    ft.clock.restart(ctx_.kernel.now());
    for (;;) {
        const pre::PStop stop = ft.runSlice(*this);
        ft.settle(*this);
        // Settle time: to the tick execute reaches the stalled access,
        // else to the last retirement. The kernel clock never runs
        // ahead of the recurrence.
        const Tick now = ctx_.kernel.now();
        Tick at = ft.clock.execFree;
        if (stop == pre::PStop::Stall)
            at = ft.clock.accessAt(ft.prices[ft.priceOf[ft.pc]].cost);
        if (at > now)
            co_await ctx_.kernel.delay(at - now);
        switch (stop) {
          case pre::PStop::StepLimit:
            break; // books settled; keep executing
          case pre::PStop::Stall:
            switch (ft.stallKind) {
              case FastTier::StallKind::R15Read:
                ft.replay.push_back(co_await msgOut_.recv());
                break;
              case FastTier::StallKind::R15Write:
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
            ft.clock.accessed(ctx_.kernel.now());
            break;
          case pre::PStop::Done:
            ft.pc = co_await awaitDispatch();
            ft.clock.restart(ctx_.kernel.now());
            break;
          case pre::PStop::Halt:
            enterHalt();
            co_return;
          case pre::PStop::Illegal:
            illegalInstruction(ft.pc, imem_.peek(ft.pc));
          case pre::PStop::Fault:
            ft.raiseFault(*this);
        }
    }
}

} // namespace snaple::core
