/**
 * @file
 * The production decoder against the golden model, word by word: for
 * every one of the 65,536 first words, isa::decodeFirst()'s legal or
 * illegal verdict, and whether an illegal word reads its operands
 * first, must equal what the classic interpreter (ref/ref_machine.cc,
 * which hand-decodes the bit layout itself) does with that word. The
 * operand reads show as r15 message words popped, so each word is run
 * with two injected words and the pops counted. isa::decodeAt()'s
 * rule for a two-word form in the last IMEM word is swept the same
 * way.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "asm/program.hh"
#include "isa/instruction.hh"
#include "ref/commit_log.hh"
#include "ref/ref_machine.hh"

namespace {

using namespace snaple;

/** r15 words the decoded form reads before it retires or fails. */
unsigned
expectedPops(const isa::DecodedInst &d)
{
    return unsigned(d.readsRd && d.rd == isa::kMsgReg) +
           unsigned(d.readsRs && d.rs == isa::kMsgReg);
}

/** What the golden model did with the first word it took. */
struct RefVerdict
{
    bool illegal = false;
    unsigned pops = 0;
};

/** Run @p prog for @p steps steps with two zero words queued on r15. */
RefVerdict
runRef(const assembler::Program &prog, std::uint64_t steps)
{
    ref::RefOptions opt;
    opt.maxSteps = steps;
    ref::RefMachine m(prog, opt);
    ref::Injection inj;
    inj.r15 = {0, 0};
    ref::CommitSink sink;
    const auto stop = m.run(inj, sink);
    return {stop == ref::RefMachine::Stop::DecodeError,
            unsigned(2 - inj.r15.size())};
}

TEST(DecodeAgreementTest, EveryFirstWordMatchesTheGoldenModel)
{
    assembler::Program prog;
    prog.imem = {0, 0}; // the word under test, then its immediate
    unsigned illegal = 0, readsFirst = 0;
    for (std::uint32_t w32 = 0; w32 <= 0xffff; ++w32) {
        const auto w = static_cast<std::uint16_t>(w32);
        prog.imem[0] = w;
        const isa::DecodedInst d = isa::decodeFirst(w);
        const RefVerdict ref = runRef(prog, 1);
        ASSERT_EQ(!d.legal, ref.illegal) << "word 0x" << std::hex << w;
        ASSERT_EQ(expectedPops(d), ref.pops) << "word 0x" << std::hex << w;
        illegal += !d.legal;
        readsFirst += !d.legal && d.readsRd;
    }
    // 65,536 - 46,592 legal words (tests/isa/roundtrip_test.cc); the
    // register and immediate ALU forms with fn 15 read first.
    EXPECT_EQ(illegal, 65536u - 46592u);
    EXPECT_EQ(readsFirst, 2u * 256u);
}

TEST(DecodeAgreementTest, LastImemWordMatchesTheGoldenModel)
{
    // `jmp 2047`, then the word under test in the last IMEM word: a
    // two-word form there has no immediate and is rejected before any
    // operand read.
    const std::uint16_t last = isa::kMemWords - 1;
    assembler::Program prog;
    prog.imem.assign(isa::kMemWords, 0);
    prog.imem[0] = isa::encodeJmp(isa::JmpFn::Jmp, 0, 0);
    prog.imem[1] = last;
    for (std::uint32_t w32 = 0; w32 <= 0xffff; ++w32) {
        const auto w = static_cast<std::uint16_t>(w32);
        prog.imem[last] = w;
        const isa::DecodedInst d = isa::decodeAt(w, last, isa::kMemWords);
        const RefVerdict ref = runRef(prog, 2);
        ASSERT_EQ(!d.legal, ref.illegal) << "word 0x" << std::hex << w;
        ASSERT_EQ(expectedPops(d), ref.pops) << "word 0x" << std::hex << w;
    }
}

} // namespace
