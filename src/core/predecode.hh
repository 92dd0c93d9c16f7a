/**
 * @file
 * Predecoded execution engine for the SNAP ISA: the fast fidelity
 * tier's interpreter (core/fast_core.cc).
 *
 * A per-PC predecode cache (PLine) is filled lazily the first time a
 * PC executes, from isa::decodeAt() (the decoder the cycle tier's fetch
 * uses), and the dispatch loop runs over a dense fused-opcode index
 * (PKind) with computed-goto threaded dispatch (every supported
 * compiler is GCC or Clang). Hot state (pc, carry flag, LFSR) lives in
 * locals for the whole engine entry and is written back on return.
 *
 * The engine is semantics-only and time-free. Everything the live core
 * supplies (where the r15 message-FIFO words come from, what a timer
 * command does, how retirements are counted and whether they are
 * committed as ref::CommitRecords) is behind an Env policy type. The
 * fast core's Env emits the same per-instruction commit stream as the
 * cycle core, so the snap_diff lockstep harness checks this engine,
 * as production runs it, against the classic golden model
 * (ref/ref_machine.hh).
 *
 * An Env provides:
 *
 *   std::uint16_t *regs();      // r0-r14
 *   std::uint16_t *handlers();  // event-handler table (kNumEvents)
 *   std::uint16_t *imem();      // kMemWords words
 *   std::uint16_t *dmem();      // kMemWords words
 *   PLine *lines();             // kMemWords predecode cache lines
 *   std::uint16_t pc();  void setPc(std::uint16_t);
 *   bool carry();        void setCarry(bool);
 *   std::uint16_t lfsr(); void setLfsr(std::uint16_t);
 *
 *   void predecoded(std::uint16_t pc,      // line (re)filled from d
 *                   isa::DecodedInst d);
 *   void beginInstr(std::uint16_t pc, const PLine &ln);
 *   bool readR15(std::uint16_t &v);        // false = stall
 *   bool writeR15(std::uint16_t v);        // false = stall
 *   bool timerCmd(std::uint8_t fn, std::uint8_t reg, std::uint16_t v);
 *   void noteRegWrite(unsigned idx, std::uint16_t v);
 *   void noteMemWrite(bool isImem, std::uint16_t a, std::uint16_t v);
 *   void dbgout(std::uint16_t v);
 *   void retire(std::uint16_t pc, const PLine &ln, bool carry);
 *   void fault(std::uint16_t v);           // before PStop::Fault
 *
 * An Env is copy-assignable: runPredecoded() runs on a copy and
 * assigns it back when it returns.
 *
 * Stall protocol: when readR15 / writeR15 / timerCmd return false the
 * engine returns PStop::Stall with NO architectural state mutated and
 * the pc still pointing at the stalled instruction. The environment
 * resolves the I/O and re-enters the engine, which re-executes the
 * instruction from scratch; the Env must therefore replay operand
 * reads it has already satisfied (beginInstr marks the instruction
 * boundary for that). Persistent state (registers, carry, LFSR,
 * memories, handler table) is only written once every stallable step
 * of an instruction has succeeded, so re-execution is always safe.
 * A retired `done` returns PStop::Done; the Env's owner performs the
 * event dispatch and re-enters at the handler.
 */

#ifndef SNAPLE_CORE_PREDECODE_HH
#define SNAPLE_CORE_PREDECODE_HH

#include <cstddef>
#include <cstdint>

#include "core/lfsr.hh"
#include "isa/instruction.hh"

namespace snaple::core::pre {

/**
 * Dense fused opcode: one index per (op, fn, addressing-mode)
 * combination so dispatch is a single indexed jump with no secondary
 * fn switch. AluBad{R,I} are the illegal words that read their
 * operands (ALU fn 15), popping r15 words, before they stop the
 * engine; Invalid covers every other illegal word, rejected before
 * any operand read (isa::DecodedInst::legal).
 */
enum class PKind : std::uint8_t
{
    // ALU register forms (op 0x0), in AluFn order.
    AddR, SubR, AddcR, SubcR, AndR, OrR, XorR, NotR,
    SllR, SrlR, SraR, MovR, NegR, RandR, SeedR, AluBadR,
    // ALU immediate forms (op 0x1); Not/Neg/Rand/Seed are Invalid.
    AddI, SubI, AddcI, SubcI, AndI, OrI, XorI,
    SllI, SrlI, SraI, MovI, AluBadI,
    // Memory.
    Ldw, Ldi, Stw, Sti,
    // Control transfer; the jump group in JmpFn order.
    Beqz, Bnez, Bltz, Bgez, JmpI, Jal, Jr, Jalr,
    // The rest; the event and sys groups in EventFn and SysFn order.
    Bfs, Timer, Done, SetAddr, Nop, Halt, Dbgout,
    Invalid,
    NumKinds,
};

inline constexpr std::size_t kNumPKinds =
    static_cast<std::size_t>(PKind::NumKinds);

/** One predecoded instruction line (len == 0: not yet decoded). */
struct PLine
{
    std::uint16_t imm = 0;  ///< trailing immediate (two-word forms)
    std::uint16_t word = 0; ///< raw first instruction word
    PKind kind = PKind::Invalid;
    std::uint8_t rd = 0;
    std::uint8_t rs = 0;
    std::uint8_t fn = 0;
    std::uint8_t len = 0;   ///< words occupied (1 or 2); 0 = undecoded
    std::int8_t off8 = 0;   ///< branch displacement
};

/** Why the engine returned. */
enum class PStop : std::uint8_t
{
    Halt,      ///< `halt` retired
    Done,      ///< `done` retired; the env dispatches the next event
    Stall,     ///< an Env I/O could not complete (pc unchanged)
    StepLimit, ///< step budget spent without another stop
    Illegal,   ///< illegal instruction at pc (isa::DecodedInst::legal)
    Fault,     ///< an address, timer register, event number or the pc
               ///< itself out of range; env.fault() got the value
};

/** Fill @p ln from the instruction at @p pc; returns its decoded
 *  form, immediate included. Kept out of the engine's dispatch loop,
 *  which it would otherwise grow for a path taken once per line. */
[[gnu::noinline]] inline isa::DecodedInst
fillLine(const std::uint16_t *imem, std::uint16_t pc, PLine &ln)
{
    using isa::Op;
    // Each opcode's first kind; the AluR, Jmp, Event and Sys kinds
    // follow it in fn order. The AluI kinds, with gaps where the
    // immediate form is illegal, have their own table.
    static constexpr PKind kFirst[16] = {
        PKind::AddR, PKind::Invalid, PKind::Ldw,  PKind::Stw,
        PKind::Ldi,  PKind::Sti,     PKind::Beqz, PKind::Bnez,
        PKind::Bltz, PKind::Bgez,    PKind::JmpI, PKind::Bfs,
        PKind::Timer, PKind::Done,   PKind::Nop,  PKind::Invalid,
    };
    static constexpr PKind kAluI[12] = {
        PKind::AddI, PKind::SubI, PKind::AddcI, PKind::SubcI,
        PKind::AndI, PKind::OrI,  PKind::XorI,  PKind::Invalid,
        PKind::SllI, PKind::SrlI, PKind::SraI,  PKind::MovI,
    };

    isa::DecodedInst d = isa::decodeAt(imem[pc], pc, isa::kMemWords);
    if (d.twoWord)
        d.imm = imem[pc + 1];
    ln.word = imem[pc];
    ln.imm = d.imm;
    ln.rd = d.rd;
    ln.rs = d.rs;
    ln.fn = d.fn;
    ln.off8 = d.off8;
    ln.len = d.twoWord ? 2 : 1;
    if (!d.legal) {
        ln.kind = !d.readsRd         ? PKind::Invalid
                  : d.op == Op::AluI ? PKind::AluBadI
                                     : PKind::AluBadR;
    } else if (d.op == Op::AluI) {
        ln.kind = kAluI[d.fn];
    } else {
        const bool byFn = d.op == Op::AluR || d.op == Op::Jmp ||
                          d.op == Op::Event || d.op == Op::Sys;
        ln.kind = static_cast<PKind>(
            unsigned(kFirst[unsigned(d.op)]) + (byFn ? d.fn : 0u));
    }
    return d;
}

/** Run up to @p maxSteps architectural steps (retired instructions)
 *  against @p caller. The engine works on a copy of the Env, so the
 *  Env's own members can stay in registers for the whole entry, and
 *  assigns it back on every return. */
template <class Env>
PStop
runPredecoded(Env &caller, std::uint64_t maxSteps)
{
    Env env = caller;
    std::uint16_t *const regs = env.regs();
    std::uint16_t *const handlers = env.handlers();
    std::uint16_t *const imem = env.imem();
    std::uint16_t *const dmem = env.dmem();
    PLine *const lines = env.lines();

    // Hot state in locals; written back through PRE_RET on every exit.
    std::uint16_t pc = env.pc();
    bool carry = env.carry();
    std::uint16_t lfsr = env.lfsr();
    std::uint64_t steps = 0;
    std::uint16_t pcNext = 0;
    const PLine *ln = nullptr;

#define PRE_RET(code)                                                  \
    do {                                                               \
        env.setPc(pc);                                                 \
        env.setCarry(carry);                                           \
        env.setLfsr(lfsr);                                             \
        caller = env;                                                  \
        return PStop::code;                                            \
    } while (0)

    // An out-of-range operand: the Env gets the value, the pc stays
    // at the faulting instruction.
#define PRE_FAULT(value)                                               \
    do {                                                               \
        env.fault(value);                                              \
        PRE_RET(Fault);                                                \
    } while (0)

    // Operand read; r15 is the message-FIFO window and may stall.
#define PRE_READ(idx, var)                                             \
    do {                                                               \
        const unsigned pre_i = (idx);                                  \
        if (pre_i == 15) {                                             \
            if (!env.readR15(var))                                     \
                PRE_RET(Stall);                                        \
        } else                                                         \
            var = regs[pre_i];                                         \
    } while (0)

    // Result write-back into rd; r15 enqueues and may stall.
#define PRE_WRITE_RD(val)                                              \
    do {                                                               \
        const std::uint16_t pre_v = (val);                             \
        if (ln->rd == 15) {                                            \
            if (!env.writeR15(pre_v))                                  \
                PRE_RET(Stall);                                        \
        } else {                                                       \
            regs[ln->rd] = pre_v;                                      \
            env.noteRegWrite(ln->rd, pre_v);                           \
        }                                                              \
    } while (0)

#define PRE_RETIRE()                                                   \
    do {                                                               \
        env.retire(pc, *ln, carry);                                    \
        pc = pcNext;                                                   \
    } while (0)

    // Common ALU shapes. PRE_ARITH commits the carry only after the
    // write-back succeeded, so a stalled r15 write re-executes from
    // unmutated state.
#define PRE_ALU_R_OPERANDS()                                           \
    std::uint16_t vd = 0, b = 0;                                       \
    PRE_READ(ln->rd, vd);                                              \
    PRE_READ(ln->rs, b)

#define PRE_ALU_I_OPERANDS()                                           \
    std::uint16_t vd = 0;                                              \
    PRE_READ(ln->rd, vd);                                              \
    const std::uint16_t b = ln->imm

#define PRE_ARITH(wideExpr)                                            \
    do {                                                               \
        const std::uint32_t pre_w = (wideExpr);                        \
        PRE_WRITE_RD(static_cast<std::uint16_t>(pre_w));               \
        carry = (pre_w >> 16) & 1;                                     \
        PRE_RETIRE();                                                  \
    } while (0);                                                       \
    PRE_NEXT()

#define PRE_PLAIN(resultExpr)                                          \
    PRE_WRITE_RD(static_cast<std::uint16_t>(resultExpr));              \
    PRE_RETIRE();                                                      \
    PRE_NEXT()

    static const void *const kDispatch[] = {
        &&L_AddR, &&L_SubR, &&L_AddcR, &&L_SubcR, &&L_AndR, &&L_OrR,
        &&L_XorR, &&L_NotR, &&L_SllR, &&L_SrlR, &&L_SraR, &&L_MovR,
        &&L_NegR, &&L_RandR, &&L_SeedR, &&L_AluBadR, &&L_AddI,
        &&L_SubI, &&L_AddcI, &&L_SubcI, &&L_AndI, &&L_OrI, &&L_XorI,
        &&L_SllI, &&L_SrlI, &&L_SraI, &&L_MovI, &&L_AluBadI, &&L_Ldw,
        &&L_Ldi, &&L_Stw, &&L_Sti, &&L_Beqz, &&L_Bnez, &&L_Bltz,
        &&L_Bgez, &&L_JmpI, &&L_Jal, &&L_Jr, &&L_Jalr, &&L_Bfs,
        &&L_Timer, &&L_Done, &&L_SetAddr, &&L_Nop, &&L_Halt,
        &&L_Dbgout, &&L_Invalid,
    };
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      kNumPKinds,
                  "dispatch table out of sync with PKind");
#define PRE_CASE(name) L_##name
#define PRE_NEXT() goto pre_top
  pre_top:
    // ---- fetch from the predecode cache ----------------------------
    if (steps == maxSteps)
        PRE_RET(StepLimit);
    ++steps;
    if (pc >= isa::kMemWords)
        PRE_FAULT(pc);
    {
        PLine &l = lines[pc];
        if (l.len == 0) [[unlikely]]
            env.predecoded(pc, fillLine(imem, pc, l));
        ln = &l;
    }
    env.beginInstr(pc, *ln);
    pcNext = static_cast<std::uint16_t>(pc + ln->len);
    goto *kDispatch[static_cast<unsigned>(ln->kind)];

    // ---- ALU, register forms ---------------------------------------
    PRE_CASE(AddR) : {
        PRE_ALU_R_OPERANDS();
        PRE_ARITH(std::uint32_t(vd) + b);
    }
    PRE_CASE(SubR) : {
        PRE_ALU_R_OPERANDS();
        // a - b as a + ~b + 1; the carry out is "no borrow".
        PRE_ARITH(std::uint32_t(vd) + (~b & 0xffffu) + 1);
    }
    PRE_CASE(AddcR) : {
        PRE_ALU_R_OPERANDS();
        PRE_ARITH(std::uint32_t(vd) + b + (carry ? 1 : 0));
    }
    PRE_CASE(SubcR) : {
        PRE_ALU_R_OPERANDS();
        PRE_ARITH(std::uint32_t(vd) + (~b & 0xffffu) +
                  (carry ? 1 : 0));
    }
    PRE_CASE(AndR) : {
        PRE_ALU_R_OPERANDS();
        PRE_PLAIN(vd & b);
    }
    PRE_CASE(OrR) : {
        PRE_ALU_R_OPERANDS();
        PRE_PLAIN(vd | b);
    }
    PRE_CASE(XorR) : {
        PRE_ALU_R_OPERANDS();
        PRE_PLAIN(vd ^ b);
    }
    PRE_CASE(NotR) : {
        std::uint16_t b = 0;
        PRE_READ(ln->rs, b);
        PRE_PLAIN(~b);
    }
    PRE_CASE(SllR) : {
        PRE_ALU_R_OPERANDS();
        PRE_PLAIN(vd << (b & 15));
    }
    PRE_CASE(SrlR) : {
        PRE_ALU_R_OPERANDS();
        PRE_PLAIN(vd >> (b & 15));
    }
    PRE_CASE(SraR) : {
        PRE_ALU_R_OPERANDS();
        PRE_PLAIN(static_cast<std::int16_t>(vd) >> (b & 15));
    }
    PRE_CASE(MovR) : {
        std::uint16_t b = 0;
        PRE_READ(ln->rs, b);
        PRE_PLAIN(b);
    }
    PRE_CASE(NegR) : {
        std::uint16_t b = 0;
        PRE_READ(ln->rs, b);
        PRE_PLAIN(-b);
    }
    PRE_CASE(RandR) : {
        std::uint16_t nl = lfsr;
        const std::uint16_t lsb = nl & 1u;
        nl = static_cast<std::uint16_t>(nl >> 1);
        if (lsb)
            nl ^= Lfsr16::kTaps;
        PRE_WRITE_RD(nl);
        lfsr = nl;
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(SeedR) : {
        std::uint16_t b = 0;
        PRE_READ(ln->rs, b);
        lfsr = b ? b : Lfsr16::kDefaultSeed;
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(AluBadR) : {
        // fn = 15: illegal, but the classic interpreter reads both
        // operands (popping r15 words) before noticing.
        std::uint16_t vd = 0, b = 0;
        PRE_READ(ln->rd, vd);
        PRE_READ(ln->rs, b);
        (void)vd;
        (void)b;
        PRE_RET(Illegal);
    }

    // ---- ALU, immediate forms --------------------------------------
    PRE_CASE(AddI) : {
        PRE_ALU_I_OPERANDS();
        PRE_ARITH(std::uint32_t(vd) + b);
    }
    PRE_CASE(SubI) : {
        PRE_ALU_I_OPERANDS();
        PRE_ARITH(std::uint32_t(vd) + (~b & 0xffffu) + 1);
    }
    PRE_CASE(AddcI) : {
        PRE_ALU_I_OPERANDS();
        PRE_ARITH(std::uint32_t(vd) + b + (carry ? 1 : 0));
    }
    PRE_CASE(SubcI) : {
        PRE_ALU_I_OPERANDS();
        PRE_ARITH(std::uint32_t(vd) + (~b & 0xffffu) +
                  (carry ? 1 : 0));
    }
    PRE_CASE(AndI) : {
        PRE_ALU_I_OPERANDS();
        PRE_PLAIN(vd & b);
    }
    PRE_CASE(OrI) : {
        PRE_ALU_I_OPERANDS();
        PRE_PLAIN(vd | b);
    }
    PRE_CASE(XorI) : {
        PRE_ALU_I_OPERANDS();
        PRE_PLAIN(vd ^ b);
    }
    PRE_CASE(SllI) : {
        PRE_ALU_I_OPERANDS();
        PRE_PLAIN(vd << (b & 15));
    }
    PRE_CASE(SrlI) : {
        PRE_ALU_I_OPERANDS();
        PRE_PLAIN(vd >> (b & 15));
    }
    PRE_CASE(SraI) : {
        PRE_ALU_I_OPERANDS();
        PRE_PLAIN(static_cast<std::int16_t>(vd) >> (b & 15));
    }
    PRE_CASE(MovI) : {
        PRE_PLAIN(ln->imm);
    }
    PRE_CASE(AluBadI) : {
        std::uint16_t vd = 0;
        PRE_READ(ln->rd, vd);
        (void)vd;
        PRE_RET(Illegal);
    }

    // ---- memory ----------------------------------------------------
    PRE_CASE(Ldw) : {
        std::uint16_t vs = 0;
        PRE_READ(ln->rs, vs);
        const std::uint16_t addr =
            static_cast<std::uint16_t>(vs + ln->imm);
        if (addr >= isa::kMemWords)
            PRE_FAULT(addr);
        PRE_PLAIN(dmem[addr]);
    }
    PRE_CASE(Ldi) : {
        std::uint16_t vs = 0;
        PRE_READ(ln->rs, vs);
        const std::uint16_t addr =
            static_cast<std::uint16_t>(vs + ln->imm);
        if (addr >= isa::kMemWords)
            PRE_FAULT(addr);
        PRE_PLAIN(imem[addr]);
    }
    PRE_CASE(Stw) : {
        std::uint16_t vd = 0, vs = 0;
        PRE_READ(ln->rd, vd);
        PRE_READ(ln->rs, vs);
        const std::uint16_t addr =
            static_cast<std::uint16_t>(vs + ln->imm);
        if (addr >= isa::kMemWords)
            PRE_FAULT(addr);
        dmem[addr] = vd;
        env.noteMemWrite(false, addr, vd);
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Sti) : {
        std::uint16_t vd = 0, vs = 0;
        PRE_READ(ln->rd, vd);
        PRE_READ(ln->rs, vs);
        const std::uint16_t addr =
            static_cast<std::uint16_t>(vs + ln->imm);
        if (addr >= isa::kMemWords)
            PRE_FAULT(addr);
        imem[addr] = vd;
        // Self-modifying code: drop the predecoded line at the
        // written address, and the one before it (a two-word line
        // starting at addr - 1 spans the written word as its
        // immediate).
        lines[addr].len = 0;
        if (addr > 0)
            lines[addr - 1].len = 0;
        env.noteMemWrite(true, addr, vd);
        PRE_RETIRE();
        PRE_NEXT();
    }

    // ---- control transfer ------------------------------------------
    PRE_CASE(Beqz) : {
        std::uint16_t vd = 0;
        PRE_READ(ln->rd, vd);
        if (vd == 0)
            pcNext = static_cast<std::uint16_t>(pcNext + ln->off8);
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Bnez) : {
        std::uint16_t vd = 0;
        PRE_READ(ln->rd, vd);
        if (vd != 0)
            pcNext = static_cast<std::uint16_t>(pcNext + ln->off8);
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Bltz) : {
        std::uint16_t vd = 0;
        PRE_READ(ln->rd, vd);
        if (static_cast<std::int16_t>(vd) < 0)
            pcNext = static_cast<std::uint16_t>(pcNext + ln->off8);
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Bgez) : {
        std::uint16_t vd = 0;
        PRE_READ(ln->rd, vd);
        if (static_cast<std::int16_t>(vd) >= 0)
            pcNext = static_cast<std::uint16_t>(pcNext + ln->off8);
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(JmpI) : {
        pcNext = ln->imm;
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Jal) : {
        PRE_WRITE_RD(pcNext);
        pcNext = ln->imm;
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Jr) : {
        std::uint16_t vs = 0;
        PRE_READ(ln->rs, vs);
        pcNext = vs;
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Jalr) : {
        std::uint16_t vs = 0;
        PRE_READ(ln->rs, vs);
        PRE_WRITE_RD(pcNext);
        pcNext = vs;
        PRE_RETIRE();
        PRE_NEXT();
    }

    // ---- the rest --------------------------------------------------
    PRE_CASE(Bfs) : {
        std::uint16_t vd = 0, vs = 0;
        PRE_READ(ln->rd, vd);
        PRE_READ(ln->rs, vs);
        PRE_PLAIN((vd & ~ln->imm) | (vs & ln->imm));
    }
    PRE_CASE(Timer) : {
        std::uint16_t vd = 0, vs = 0;
        PRE_READ(ln->rd, vd);
        if (ln->fn != 2)
            PRE_READ(ln->rs, vs);
        if (vd > 2)
            PRE_FAULT(vd);
        if (!env.timerCmd(ln->fn, static_cast<std::uint8_t>(vd), vs))
            PRE_RET(Stall);
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Done) : {
        PRE_RETIRE();
        PRE_RET(Done);
    }
    PRE_CASE(SetAddr) : {
        std::uint16_t vd = 0, vs = 0;
        PRE_READ(ln->rd, vd);
        PRE_READ(ln->rs, vs);
        if (vd >= isa::kNumEvents)
            PRE_FAULT(vd);
        handlers[vd] = vs;
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Nop) : {
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Halt) : {
        PRE_RETIRE();
        PRE_RET(Halt);
    }
    PRE_CASE(Dbgout) : {
        std::uint16_t vd = 0;
        PRE_READ(ln->rd, vd);
        env.dbgout(vd);
        PRE_RETIRE();
        PRE_NEXT();
    }
    PRE_CASE(Invalid) : {
        PRE_RET(Illegal);
    }

#undef PRE_RET
#undef PRE_FAULT
#undef PRE_READ
#undef PRE_WRITE_RD
#undef PRE_RETIRE
#undef PRE_ALU_R_OPERANDS
#undef PRE_ALU_I_OPERANDS
#undef PRE_ARITH
#undef PRE_PLAIN
#undef PRE_CASE
#undef PRE_NEXT
}

} // namespace snaple::core::pre

#endif // SNAPLE_CORE_PREDECODE_HH
