/**
 * @file
 * Edge-case and failure-injection tests for the SNAP/LE core:
 * arithmetic corner values, r15 backpressure, event flooding, config
 * knobs (sizing, leakage), and multi-word carry chains beyond 32 bits.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "sim/kernel.hh"
#include "sim/rng.hh"

namespace {

using namespace snaple;
using core::CoreConfig;
using core::Machine;

std::vector<std::uint16_t>
runProgram(const std::string &src, const CoreConfig &cfg = {})
{
    sim::Kernel k;
    Machine m(k, cfg);
    m.load(assembler::assembleSnap(src));
    m.start();
    k.run(k.now() + 100 * sim::kMillisecond);
    EXPECT_TRUE(m.core().halted()) << "program did not halt";
    return m.core().debugOut();
}

TEST(CoreEdgeTest, ShiftByZeroAndByFifteen)
{
    auto out = runProgram(R"(
        li r1, 0x1234
        slli r1, 0
        dbgout r1
        li r1, 1
        slli r1, 15
        dbgout r1
        li r1, 0x8000
        srli r1, 15
        dbgout r1
        halt
    )");
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0x1234);
    EXPECT_EQ(out[1], 0x8000);
    EXPECT_EQ(out[2], 0x0001);
}

TEST(CoreEdgeTest, NegOfMinimumValueWraps)
{
    auto out = runProgram(
        "li r1, 0x8000\n neg r2, r1\n dbgout r2\n halt\n");
    EXPECT_EQ(out[0], 0x8000); // two's complement fixed point
}

TEST(CoreEdgeTest, NotIsBitwiseComplement)
{
    auto out =
        runProgram("li r1, 0\n not r2, r1\n dbgout r2\n halt\n");
    EXPECT_EQ(out[0], 0xffff);
}

TEST(CoreEdgeTest, BfsWithAllOnesAndAllZerosMasks)
{
    auto out = runProgram(R"(
        li r1, 0x1234
        li r2, 0xabcd
        bfs r1, r2, 0
        dbgout r1
        bfs r1, r2, 0xffff
        dbgout r1
        halt
    )");
    EXPECT_EQ(out[0], 0x1234); // mask 0: dst unchanged
    EXPECT_EQ(out[1], 0xabcd); // mask ~0: dst replaced
}

TEST(CoreEdgeTest, FortyEightBitAdditionCarryChain)
{
    // 0x00ff_ffff_ffff + 1 = 0x0100_0000_0000 across three words.
    auto out = runProgram(R"(
        li r1, 0xffff
        li r2, 0xffff
        li r3, 0x00ff
        li r4, 1
        clr r5
        add r1, r4
        addc r2, r5
        addc r3, r5
        dbgout r1
        dbgout r2
        dbgout r3
        halt
    )");
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0x0000);
    EXPECT_EQ(out[1], 0x0000);
    EXPECT_EQ(out[2], 0x0100);
}

TEST(CoreEdgeTest, JalrRoundTripThroughRegister)
{
    auto out = runProgram(R"(
        la  r2, fn
        jalr r13, r2
        dbgout r1
        halt
    fn: li r1, 0x42
        jr r13
    )");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x42);
}

TEST(CoreEdgeTest, WriteToR15StallsWhenFifoFull)
{
    static_assert(Machine::kMsgFifoDepth == 4);
    sim::Kernel k;
    Machine m(k);
    m.load(assembler::assembleSnap(R"(
        li r15, 1
        li r15, 2
        li r15, 3
        li r15, 4
        li r15, 5      ; fifo full: core stalls here
        li r1, 0xAA
        dbgout r1
        halt
    )"));
    m.start();
    k.runFor(10 * sim::kMillisecond);
    EXPECT_FALSE(m.core().halted());
    EXPECT_TRUE(m.msgIn().full());
    // Drain one word; the core finishes.
    sim::Kernel *kp = &k;
    auto &fifo = m.msgIn();
    k.spawn([](core::WordFifo &f, sim::Kernel &) -> sim::Co<void> {
        (void)co_await f.recv();
    }(fifo, *kp));
    k.run(k.now() + 10 * sim::kMillisecond);
    EXPECT_TRUE(m.core().halted());
    EXPECT_EQ(m.core().debugOut().back(), 0xAA);
}

TEST(CoreEdgeTest, EventFloodDropsBeyondQueueDepth)
{
    CoreConfig cfg;
    cfg.eventQueueDepth = 4;
    sim::Kernel k;
    Machine m(k, cfg);
    m.load(assembler::assembleSnap(R"(
        li r1, 0
        la r2, h
        setaddr r1, r2
        done
    h:  dbgout r1
        done
    )"));
    m.start();
    k.runFor(sim::kMillisecond);
    // Flood 10 tokens into a depth-4 queue while asleep: the first is
    // consumed immediately (waking fetch), then 4 buffer, 5 drop.
    int accepted = 0;
    for (int i = 0; i < 10; ++i)
        accepted += m.postEvent(isa::EventNum::Timer0) ? 1 : 0;
    k.runFor(10 * sim::kMillisecond);
    EXPECT_EQ(accepted, 5);
    EXPECT_EQ(m.eventQueue().dropped(), 5u);
    EXPECT_EQ(m.core().stats().handlers, 5u);
}

TEST(CoreEdgeTest, LowEnergySizingTradesSpeedForEnergy)
{
    const char *src = R"(
        li r1, 500
    loop:
        add r2, r1
        dec r1
        bnez r1, loop
        halt
    )";
    auto run = [&](const CoreConfig &cfg) {
        sim::Kernel k;
        Machine m(k, cfg);
        m.load(assembler::assembleSnap(src));
        m.start();
        k.run(k.now() + sim::kSecond);
        EXPECT_TRUE(m.core().halted());
        return std::pair<double, sim::Tick>(
            m.ctx().ledger.processorPj(),
            m.core().stats().activeTime);
    };
    CoreConfig nominal;
    auto [e_nom, t_nom] = run(nominal);
    auto [e_low, t_low] =
        run(CoreConfig::lowEnergySizing(nominal));
    EXPECT_NEAR(e_low / e_nom, 0.6, 0.01);
    EXPECT_NEAR(double(t_low) / double(t_nom), 2.5, 0.05);
}

TEST(CoreEdgeTest, LeakageAccruesOverWallTimeNotActivity)
{
    sim::Kernel k;
    sim::TraceSink sink;
    k.setTracer(&sink);
    Machine m(k);
    m.load(assembler::assembleSnap("done\n")); // sleep immediately
    m.start();
    k.runFor(sim::kSecond);
    const std::uint64_t hash = sink.hash();
    double leak = m.ctx().energy().pj(energy::Cat::Leakage);
    // ~7 uW for one second ~ 7e6 pJ.
    EXPECT_NEAR(leak, m.ctx().leakagePowerNw() * 1e3, 1e3);
    // A read is pure: the same value again at the same instant,
    // nothing booked into the dynamic ledger, no trace event.
    EXPECT_DOUBLE_EQ(m.ctx().energy().pj(energy::Cat::Leakage), leak);
    EXPECT_EQ(m.ctx().ledger.pj(energy::Cat::Leakage), 0.0);
    EXPECT_EQ(sink.hash(), hash);
    // Dynamic energy is tiny by comparison (the core slept).
    EXPECT_LT(m.ctx().ledger.processorPj(), leak / 100.0);
}

TEST(CoreEdgeTest, LeakageFallsSteeplyWithVoltage)
{
    CoreConfig c06;
    c06.volts = 0.6;
    sim::Kernel k1, k2;
    Machine m18(k1), m06(k2, c06);
    EXPECT_GT(m18.ctx().leakagePowerNw(),
              5.0 * m06.ctx().leakagePowerNw());
}

// Property: random straight-line ALU programs agree with a host
// reference interpreter for the same operations.
class AluProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(AluProperty, RandomProgramMatchesHostReference)
{
    sim::Rng rng(GetParam() * 7919);
    std::uint16_t ref[4];
    std::string src;
    for (int i = 0; i < 4; ++i) {
        ref[i] = rng.uniform16();
        src += "li r" + std::to_string(i + 1) + ", " +
               std::to_string(ref[i]) + "\n";
    }
    bool carry = false;
    auto set_carry_add = [&](std::uint32_t wide) {
        carry = (wide >> 16) & 1;
        return static_cast<std::uint16_t>(wide);
    };
    for (int step = 0; step < 40; ++step) {
        int a = static_cast<int>(rng.uniformInt(0, 3));
        int b = static_cast<int>(rng.uniformInt(0, 3));
        switch (rng.uniformInt(0, 6)) {
          case 0:
            src += "add";
            ref[a] = set_carry_add(std::uint32_t(ref[a]) + ref[b]);
            break;
          case 1:
            src += "sub";
            ref[a] = set_carry_add(std::uint32_t(ref[a]) +
                                   (~ref[b] & 0xffffu) + 1);
            break;
          case 2:
            src += "addc";
            ref[a] = set_carry_add(std::uint32_t(ref[a]) + ref[b] +
                                   (carry ? 1 : 0));
            break;
          case 3:
            src += "and";
            ref[a] &= ref[b];
            break;
          case 4:
            src += "or";
            ref[a] |= ref[b];
            break;
          case 5:
            src += "xor";
            ref[a] ^= ref[b];
            break;
          case 6:
            src += "sll";
            ref[a] = static_cast<std::uint16_t>(ref[a]
                                                << (ref[b] & 15));
            break;
        }
        src += " r" + std::to_string(a + 1) + ", r" +
               std::to_string(b + 1) + "\n";
    }
    for (int i = 0; i < 4; ++i)
        src += "dbgout r" + std::to_string(i + 1) + "\n";
    src += "halt\n";

    auto out = runProgram(src);
    ASSERT_EQ(out.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], ref[i]) << "r" << (i + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluProperty,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

} // namespace
