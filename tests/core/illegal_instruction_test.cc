/**
 * @file
 * One illegal-instruction rule at both fidelity tiers and in the
 * golden model (docs/ISA.md, "Illegal encodings"): every instruction
 * before the illegal word retires, an ALU fn-15 word reads its
 * operands (popping r15 message words) before it fails, a two-word
 * form whose immediate would lie past the end of IMEM fails before
 * any operand read, and both tiers stop with the same message naming
 * the pc and the word. An operand out of range (a memory address, a
 * timer register, an event number) and a pc past IMEM stop both tiers
 * through the same check, with the same message and the same dbgout
 * words.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "ref/commit_log.hh"
#include "ref/ref_machine.hh"
#include "sim/kernel.hh"
#include "sim/logging.hh"

namespace {

using namespace snaple;
using core::FidelityMode;

/** What one run did before it stopped. */
struct Outcome
{
    std::string error; ///< the FatalError's message, "" if none
    std::vector<std::uint16_t> dbgOut;
    std::uint64_t retired = 0;
    std::size_t msgWordsLeft = 0; ///< of those queued on r15
};

/** Run @p prog at @p fidelity with @p r15 queued on the core's r15
 *  read FIFO (at most the FIFO's depth of words). */
Outcome
runCore(const assembler::Program &prog, FidelityMode fidelity,
        const std::vector<std::uint16_t> &r15 = {})
{
    sim::Kernel k;
    core::Machine m(k);
    m.load(prog);
    for (std::uint16_t w : r15)
        EXPECT_TRUE(m.msgOut().tryPush(w));
    m.start(fidelity);
    Outcome o;
    try {
        k.run(k.now() + sim::kMillisecond);
    } catch (const sim::FatalError &e) {
        o.error = e.what();
    }
    o.dbgOut = m.core().debugOut();
    o.retired = m.core().stats().instructions;
    o.msgWordsLeft = m.msgOut().size();
    return o;
}

/** The golden model's run of @p prog with @p r15 injected. */
Outcome
runRef(const assembler::Program &prog,
       const std::vector<std::uint16_t> &r15 = {})
{
    ref::RefMachine m(prog);
    ref::Injection inj;
    inj.r15.assign(r15.begin(), r15.end());
    ref::CommitSink sink;
    Outcome o;
    if (m.run(inj, sink) == ref::RefMachine::Stop::DecodeError)
        o.error = "decode error at pc " + std::to_string(m.pc());
    o.dbgOut = m.dbg();
    o.retired = sink.size();
    o.msgWordsLeft = inj.r15.size();
    return o;
}

/** Both tiers stop with @p message and agree with the golden model,
 *  which stops with a decode error at @p pc; returns its outcome. */
Outcome
expectOneRule(const std::string &src, const std::string &message,
              std::uint16_t pc,
              const std::vector<std::uint16_t> &r15 = {})
{
    const assembler::Program prog = assembler::assembleSnap(src);
    const Outcome golden = runRef(prog, r15);
    EXPECT_EQ(golden.error, "decode error at pc " + std::to_string(pc));
    for (FidelityMode f : {FidelityMode::Cycle, FidelityMode::Fast}) {
        SCOPED_TRACE(f == FidelityMode::Cycle ? "cycle" : "fast");
        const Outcome o = runCore(prog, f, r15);
        EXPECT_EQ(o.error, "fatal: " + message);
        EXPECT_EQ(o.dbgOut, golden.dbgOut);
        EXPECT_EQ(o.retired, golden.retired);
        EXPECT_EQ(o.msgWordsLeft, golden.msgWordsLeft);
    }
    return golden;
}

TEST(IllegalInstructionTest, EarlierInstructionsRetireFirst)
{
    // The reserved opcode after two instructions: both retire, at the
    // cycle tier too, where fetch reaches the word before execute
    // retires `dbgout`.
    const Outcome golden = expectOneRule(R"(
        li r1, 7
        dbgout r1
        .word 0xF000
    )",
                                         "illegal instruction at pc 3 "
                                         "(word 0xf000)",
                                         3);
    EXPECT_EQ(golden.dbgOut, std::vector<std::uint16_t>{7});
    EXPECT_EQ(golden.retired, 2u);
}

TEST(IllegalInstructionTest, AluFn15ReadsItsOperandsFirst)
{
    // Register form, rd = rs = r15: two message words popped.
    expectOneRule(R"(
        li r1, 1
        dbgout r1
        .word 0x0FFF
        halt
    )",
                  "illegal instruction at pc 3 (word 0x0fff)", 3,
                  {11, 22, 33});
    // Immediate form, rd = r15: one word popped.
    expectOneRule(R"(
        nop
        .word 0x1F0F, 0x1234
        halt
    )",
                  "illegal instruction at pc 1 (word 0x1f0f)", 1,
                  {11, 22, 33});
}

TEST(IllegalInstructionTest, RejectedFormsReadNothing)
{
    // Reserved opcode naming r15, and `noti r15, imm`: rejected
    // before any operand read, so no message word moves.
    expectOneRule(".word 0xFFF0\nhalt\n",
                  "illegal instruction at pc 0 (word 0xfff0)", 0,
                  {11, 22});
    expectOneRule(".word 0x1FF7, 0\nhalt\n",
                  "illegal instruction at pc 0 (word 0x1ff7)", 0,
                  {11, 22});
}

TEST(IllegalInstructionTest, ImmediatePastImemEnd)
{
    // `addi r15, ...` in the last IMEM word: its immediate would lie
    // past the end of IMEM, so it is rejected before reading r15.
    expectOneRule(R"(
        li r1, 4
        dbgout r1
        jmp 2047
        .org 2047
        .word 0x1F00
    )",
                  "illegal instruction at pc 2047 (word 0x1f00)", 2047,
                  {11});
}

/** Both tiers stop on @p src with @p message, having written dbgout
 *  words @p dbg and retired as many instructions (the golden model
 *  has no rule for these faults). */
void
expectSameFault(const std::string &src, const std::string &message,
                const std::vector<std::uint16_t> &dbg)
{
    const assembler::Program prog = assembler::assembleSnap(src);
    const Outcome cycle = runCore(prog, FidelityMode::Cycle);
    const Outcome fast = runCore(prog, FidelityMode::Fast);
    for (const Outcome *o : {&cycle, &fast}) {
        SCOPED_TRACE(o == &cycle ? "cycle" : "fast");
        EXPECT_EQ(o->error, "fatal: " + message);
        EXPECT_EQ(o->dbgOut, dbg);
    }
    EXPECT_EQ(fast.retired, cycle.retired);
}

TEST(OperandFaultTest, DmemAddressOutOfRange)
{
    expectSameFault(R"(
        li r1, 3000
        li r3, 5
        dbgout r3
        ldw r2, 0(r1)
        halt
    )",
                    "DMEM address out of range: 3000", {5});
    expectSameFault(R"(
        li r1, 2040
        li r3, 5
        dbgout r3
        stw r3, 8(r1)
        halt
    )",
                    "DMEM address out of range: 2048", {5});
}

TEST(OperandFaultTest, ImemAddressOutOfRange)
{
    expectSameFault(R"(
        li r1, 4095
        li r3, 6
        dbgout r3
        ldi r2, 1(r1)
        halt
    )",
                    "IMEM address out of range: 4096", {6});
    expectSameFault(R"(
        li r1, 2048
        li r3, 6
        dbgout r3
        sti r3, 0(r1)
        halt
    )",
                    "IMEM address out of range: 2048", {6});
}

TEST(OperandFaultTest, TimerRegisterOutOfRange)
{
    expectSameFault(R"(
        li r1, 3
        li r2, 100
        dbgout r2
        schedlo r1, r2
        halt
    )",
                    "timer register out of range: 3", {100});
}

TEST(OperandFaultTest, SetaddrEventOutOfRange)
{
    expectSameFault(R"(
        li r1, 7
        li r2, 9
        dbgout r2
        setaddr r1, r2
        halt
    )",
                    "setaddr event out of range: 7", {9});
}

TEST(OperandFaultTest, PcPastImem)
{
    // A jump out of IMEM, and straight-line code running off its end.
    expectSameFault(R"(
        li r3, 8
        dbgout r3
        jmp 3000
    )",
                    "IMEM address out of range: 3000", {8});
    expectSameFault(R"(
        li r3, 8
        dbgout r3
        jmp 2040
        .org 2040
        dbgout r3
        nop
        nop
        nop
        nop
        nop
        nop
        nop
    )",
                    "IMEM address out of range: 2048", {8, 8});
}

} // namespace
