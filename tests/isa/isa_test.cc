/**
 * @file
 * Encode/decode round-trip and semantic-summary tests for the SNAP ISA.
 */

#include <gtest/gtest.h>

#include "isa/instruction.hh"

namespace {

using namespace snaple::isa;

TEST(IsaDecodeTest, AluRegisterRoundTrip)
{
    for (auto fn : {AluFn::Add, AluFn::Sub, AluFn::Addc, AluFn::Subc,
                    AluFn::And, AluFn::Or, AluFn::Xor, AluFn::Not,
                    AluFn::Sll, AluFn::Srl, AluFn::Sra, AluFn::Mov,
                    AluFn::Neg, AluFn::Rand, AluFn::Seed}) {
        std::uint16_t w = encodeAluR(fn, 3, 7);
        DecodedInst d = decodeFirst(w);
        EXPECT_EQ(d.op, Op::AluR);
        EXPECT_EQ(d.aluFn(), fn);
        EXPECT_EQ(d.rd, 3);
        EXPECT_EQ(d.rs, 7);
        EXPECT_FALSE(d.twoWord);
    }
}

TEST(IsaDecodeTest, OperandUsageSummaryBinaryAlu)
{
    DecodedInst add = decodeFirst(encodeAluR(AluFn::Add, 1, 2));
    EXPECT_TRUE(add.readsRd);
    EXPECT_TRUE(add.readsRs);
    EXPECT_TRUE(add.writesRd);
    EXPECT_EQ(add.unit, Unit::Adder);
    EXPECT_EQ(add.cls, InstrClass::ArithReg);

    DecodedInst mv = decodeFirst(encodeAluR(AluFn::Mov, 1, 2));
    EXPECT_FALSE(mv.readsRd);
    EXPECT_TRUE(mv.readsRs);
    EXPECT_TRUE(mv.writesRd);

    DecodedInst sh = decodeFirst(encodeAluR(AluFn::Srl, 1, 2));
    EXPECT_EQ(sh.unit, Unit::Shifter);
    EXPECT_EQ(sh.cls, InstrClass::Shift);
}

TEST(IsaDecodeTest, RandAndSeedUseLfsrUnit)
{
    DecodedInst rnd = decodeFirst(encodeAluR(AluFn::Rand, 5, 0));
    EXPECT_FALSE(rnd.readsRs);
    EXPECT_FALSE(rnd.readsRd);
    EXPECT_TRUE(rnd.writesRd);
    EXPECT_EQ(rnd.unit, Unit::Lfsr);

    DecodedInst sd = decodeFirst(encodeAluR(AluFn::Seed, 0, 5));
    EXPECT_TRUE(sd.readsRs);
    EXPECT_FALSE(sd.writesRd);
    EXPECT_EQ(sd.unit, Unit::Lfsr);
}

TEST(IsaDecodeTest, ImmediateFormsAreTwoWords)
{
    DecodedInst d = decodeFirst(encodeAluI(AluFn::Add, 4));
    EXPECT_TRUE(d.twoWord);
    EXPECT_TRUE(d.readsRd);
    EXPECT_FALSE(d.readsRs);
    EXPECT_EQ(d.cls, InstrClass::ArithImm);

    DecodedInst li = decodeFirst(encodeAluI(AluFn::Mov, 4));
    EXPECT_FALSE(li.readsRd);
    EXPECT_TRUE(li.writesRd);
}

TEST(IsaDecodeTest, IllegalImmediateFormsRejected)
{
    // Rejected before any operand read, and one word long: there is
    // no immediate to fetch for an instruction that does not exist.
    for (AluFn fn : {AluFn::Not, AluFn::Neg, AluFn::Rand, AluFn::Seed}) {
        const DecodedInst d = decodeFirst(encodeAluI(fn, 1));
        EXPECT_FALSE(d.legal) << int(fn);
        EXPECT_FALSE(d.twoWord);
        EXPECT_FALSE(d.readsRd || d.readsRs || d.writesRd);
    }
}

TEST(IsaDecodeTest, MemoryOpsUsePerBankUnits)
{
    DecodedInst ld = decodeFirst(encodeMem(Op::Ldw, 2, 14));
    EXPECT_TRUE(ld.twoWord);
    EXPECT_TRUE(ld.readsRs);
    EXPECT_FALSE(ld.readsRd);
    EXPECT_TRUE(ld.writesRd);
    EXPECT_EQ(ld.unit, Unit::LdStD);
    EXPECT_EQ(ld.cls, InstrClass::Load);

    DecodedInst st = decodeFirst(encodeMem(Op::Stw, 2, 14));
    EXPECT_TRUE(st.readsRd);
    EXPECT_FALSE(st.writesRd);
    EXPECT_EQ(st.cls, InstrClass::Store);

    DecodedInst ldi = decodeFirst(encodeMem(Op::Ldi, 2, 14));
    EXPECT_EQ(ldi.unit, Unit::LdStI);
    EXPECT_FALSE(onFastBus(ldi.unit));
    EXPECT_TRUE(onFastBus(ld.unit));
}

TEST(IsaDecodeTest, BranchCarriesSignedOffset)
{
    DecodedInst d = decodeFirst(encodeBranch(Op::Beqz, 9, -5));
    EXPECT_EQ(d.op, Op::Beqz);
    EXPECT_EQ(d.rd, 9);
    EXPECT_EQ(d.off8, -5);
    EXPECT_TRUE(d.readsRd);
    EXPECT_TRUE(d.isControl());
    EXPECT_FALSE(d.twoWord);
}

TEST(IsaDecodeTest, JumpGroupFormsAndLengths)
{
    DecodedInst j = decodeFirst(encodeJmp(JmpFn::Jmp, 0, 0));
    EXPECT_TRUE(j.twoWord);
    EXPECT_TRUE(j.isControl());

    DecodedInst jal = decodeFirst(encodeJmp(JmpFn::Jal, 13, 0));
    EXPECT_TRUE(jal.twoWord);
    EXPECT_TRUE(jal.writesRd);

    DecodedInst jr = decodeFirst(encodeJmp(JmpFn::Jr, 0, 13));
    EXPECT_FALSE(jr.twoWord);
    EXPECT_TRUE(jr.readsRs);

    DecodedInst jalr = decodeFirst(encodeJmp(JmpFn::Jalr, 13, 2));
    EXPECT_FALSE(jalr.twoWord);
    EXPECT_TRUE(jalr.readsRs);
    EXPECT_TRUE(jalr.writesRd);
}

TEST(IsaDecodeTest, CoprocessorAndEventInstructions)
{
    DecodedInst sh = decodeFirst(encodeTimer(TimerFn::SchedHi, 1, 2));
    EXPECT_EQ(sh.unit, Unit::TimerIf);
    EXPECT_TRUE(sh.readsRd);
    EXPECT_TRUE(sh.readsRs);
    EXPECT_FALSE(sh.writesRd);

    DecodedInst cx = decodeFirst(encodeTimer(TimerFn::Cancel, 1, 0));
    EXPECT_TRUE(cx.readsRd);
    EXPECT_FALSE(cx.readsRs);

    DecodedInst dn = decodeFirst(encodeEvent(EventFn::Done, 0, 0));
    EXPECT_TRUE(dn.isControl());
    EXPECT_EQ(dn.cls, InstrClass::EventCtl);

    DecodedInst sa = decodeFirst(encodeEvent(EventFn::SetAddr, 1, 2));
    EXPECT_FALSE(sa.isControl());
    EXPECT_TRUE(sa.readsRd);
    EXPECT_TRUE(sa.readsRs);
}

TEST(IsaDecodeTest, BfsReadsBothAndWrites)
{
    DecodedInst d = decodeFirst(encodeBfs(3, 4));
    EXPECT_TRUE(d.twoWord);
    EXPECT_TRUE(d.readsRd);
    EXPECT_TRUE(d.readsRs);
    EXPECT_TRUE(d.writesRd);
    EXPECT_EQ(d.unit, Unit::Logic);
}

TEST(IsaDecodeTest, IllegalEncodingsAreFatal)
{
    // The reserved opcode keeps its fields and reads nothing.
    const DecodedInst reserved = decodeFirst(0xF123);
    EXPECT_FALSE(reserved.legal);
    EXPECT_EQ(reserved.word(), 0xF123);
    EXPECT_FALSE(reserved.readsRd || reserved.readsRs);
    // ALU fn 15 is unassigned but reads its operands first: rd and rs
    // in the register form, rd alone in the immediate form.
    const DecodedInst r = decodeFirst(0x0FEF);
    EXPECT_FALSE(r.legal);
    EXPECT_TRUE(r.readsRd && r.readsRs);
    EXPECT_FALSE(r.writesRd || r.twoWord);
    const DecodedInst i = decodeFirst(encodeAluI(AluFn(15), 15));
    EXPECT_FALSE(i.legal);
    EXPECT_TRUE(i.readsRd && i.twoWord);
    EXPECT_FALSE(i.readsRs || i.writesRd);
    EXPECT_TRUE(decodeFirst(encodeSys(SysFn::Halt, 0)).legal);
}

TEST(IsaDecodeTest, ImmediatePastImemEndIsIllegal)
{
    const std::uint16_t li = encodeAluI(AluFn::Mov, 1);
    EXPECT_TRUE(decodeAt(li, kMemWords - 2, kMemWords).legal);
    const DecodedInst cut = decodeAt(li, kMemWords - 1, kMemWords);
    EXPECT_FALSE(cut.legal);
    EXPECT_FALSE(cut.twoWord);
    // One-word forms fit anywhere.
    EXPECT_TRUE(decodeAt(encodeSys(SysFn::Nop, 0), kMemWords - 1,
                         kMemWords)
                    .legal);
}

TEST(IsaDisasmTest, RepresentativeForms)
{
    auto dis = [](std::uint16_t w, std::uint16_t imm = 0) {
        DecodedInst d = decodeFirst(w);
        d.imm = imm;
        return disassemble(d);
    };
    EXPECT_EQ(dis(encodeAluR(AluFn::Add, 1, 2)), "add r1, r2");
    EXPECT_EQ(dis(encodeAluR(AluFn::Rand, 5, 0)), "rand r5");
    EXPECT_EQ(dis(encodeAluR(AluFn::Seed, 0, 6)), "seed r6");
    EXPECT_EQ(dis(encodeAluI(AluFn::Mov, 2), 99), "li r2, 99");
    EXPECT_EQ(dis(encodeMem(Op::Ldw, 1, 14), 4), "ldw r1, 4(r14)");
    EXPECT_EQ(dis(encodeBranch(Op::Bnez, 3, -2)), "bnez r3, -2");
    EXPECT_EQ(dis(encodeEvent(EventFn::Done, 0, 0)), "done");
    EXPECT_EQ(dis(encodeTimer(TimerFn::Cancel, 2, 0)), "cancel r2");
}

// Property sweep: every legal first word decodes without throwing and
// re-encodes to itself through the encoder family.
class DecodeSweep : public ::testing::TestWithParam<int>
{};

TEST_P(DecodeSweep, AluRegisterEncodingsAreStable)
{
    int fn = GetParam();
    for (int rd = 0; rd < 16; ++rd) {
        for (int rs = 0; rs < 16; ++rs) {
            std::uint16_t w = encodeAluR(static_cast<AluFn>(fn),
                                         std::uint8_t(rd),
                                         std::uint8_t(rs));
            DecodedInst d = decodeFirst(w);
            EXPECT_EQ(d.rd, rd);
            EXPECT_EQ(d.rs, rs);
            EXPECT_EQ(int(d.fn), fn);
            EXPECT_EQ(w, encodeAluR(d.aluFn(), d.rd, d.rs));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllAluFns, DecodeSweep,
                         ::testing::Range(0, 15));

} // namespace
