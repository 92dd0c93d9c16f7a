/**
 * @file
 * Tests for the fast fidelity tier (docs/SIMULATOR.md): the predecoded
 * statistical interpreter must be architecturally bit-identical to the
 * CHP cycle tier — same registers, same dbgout stream, same message
 * and timer traffic, same instruction counts — with only time and
 * energy modeled statistically. Also pins the `sti` predecode-line
 * invalidation (self-modifying code).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "sim/kernel.hh"

namespace {

using namespace snaple;
using core::CoreConfig;
using core::FidelityMode;
using core::Machine;

/** Assemble and run @p src to halt at @p fidelity; returns dbgout. */
std::vector<std::uint16_t>
runAt(const std::string &src, FidelityMode fidelity,
      std::uint64_t *instructions = nullptr)
{
    sim::Kernel k;
    Machine m(k);
    m.load(assembler::assembleSnap(src));
    m.start(fidelity);
    k.run(k.now() + 100 * sim::kMillisecond);
    EXPECT_TRUE(m.core().halted()) << "program did not halt";
    if (instructions)
        *instructions = m.core().stats().instructions;
    return m.core().debugOut();
}

TEST(FastTierTest, MatchesCycleTierOnComputeMix)
{
    const std::string src = R"(
        li  sp, 2000
        li  r1, 500
        li  r2, 3
        li  r4, 100
    loop:
        add r2, r2
        add r2, r1
        ldw r5, 0(r4)
        add r5, r2
        stw r5, 1(r4)
        slli r5, 2
        xori r5, 0x5a5a
        dec r1
        bnez r1, loop
        dbgout r2
        dbgout r5
        halt
    )";
    std::uint64_t cycleIns = 0, fastIns = 0;
    const auto cycle = runAt(src, FidelityMode::Cycle, &cycleIns);
    const auto fast = runAt(src, FidelityMode::Fast, &fastIns);
    EXPECT_EQ(cycle, fast);
    EXPECT_EQ(cycleIns, fastIns);
    EXPECT_GT(cycleIns, 4000u);
}

TEST(FastTierTest, EnergyTracksCycleTierOnComputeMix)
{
    // The analytic per-class table is derived from the same
    // calibration constants the cycle tier charges, so whole-program
    // energy must land close — energy has no fetch/execute overlap to
    // blur it, unlike time. (The --calibrate pass closes the residual
    // gap; here we only pin the analytic table's sanity.)
    const std::string src = R"(
        li  r1, 2000
        li  r2, 3
    loop:
        add r2, r2
        slli r2, 1
        andi r2, 0x7fff
        dec r1
        bnez r1, loop
        halt
    )";
    double pj[2] = {0, 0};
    for (int f = 0; f < 2; ++f) {
        sim::Kernel k;
        Machine m(k);
        m.load(assembler::assembleSnap(src));
        m.start(f ? FidelityMode::Fast : FidelityMode::Cycle);
        k.run(k.now() + 100 * sim::kMillisecond);
        ASSERT_TRUE(m.core().halted());
        pj[f] = m.ctx().chargedPj();
    }
    EXPECT_NEAR(pj[1], pj[0], 0.10 * pj[0]);
}

TEST(FastTierTest, StiInvalidatesCachedPredecodedLine)
{
    // Self-modifying code: the patch site executes once as the
    // original instruction (already predecoded and cached), is then
    // rewritten through `sti`, and must execute as the new instruction
    // on the next pass. A stale predecode line would replay the nop
    // and leave r1 at 0.
    const std::string src = R"(
        li r1, 0
        li r2, 5
        li r5, 2
        la r4, donor
        ldi r3, 0(r4)
    loop:
    patch:
        nop
        la r6, patch
        sti r3, 0(r6)
        dec r5
        bnez r5, loop
        dbgout r1
        halt
    donor:
        add r1, r2
    )";
    const std::vector<std::uint16_t> want{5};
    EXPECT_EQ(runAt(src, FidelityMode::Cycle), want);
    EXPECT_EQ(runAt(src, FidelityMode::Fast), want);
}

TEST(FastTierTest, TimerAndEventDispatchMatchCycleTier)
{
    // schedlo drives the timer coprocessor through the shared timer
    // port (a stall-and-replay path in the fast tier); the handler
    // then dispatches through the same Done machinery as the cycle
    // tier.
    const std::string src = R"(
        li r1, 0
        la r2, h
        setaddr r1, r2
        li r1, 0
        li r2, 2000
        schedlo r1, r2
        done
    h:
        li r4, 0x77
        dbgout r4
        halt
    )";
    const std::vector<std::uint16_t> want{0x77};
    EXPECT_EQ(runAt(src, FidelityMode::Cycle), want);
    EXPECT_EQ(runAt(src, FidelityMode::Fast), want);
}

TEST(FastTierTest, R15ReadsStallAndResume)
{
    // Reads of r15 pop the message-out FIFO; with the FIFO empty the
    // fast tier must stall mid-instruction, buffer the word when it
    // arrives, and replay the instruction to completion.
    const char *src = R"(
        mov r1, r15
        mov r2, r15
        add r1, r2
        dbgout r1
        halt
    )";
    for (const FidelityMode f :
         {FidelityMode::Cycle, FidelityMode::Fast}) {
        sim::Kernel k;
        Machine m(k);
        m.load(assembler::assembleSnap(src));
        m.start(f);
        k.spawn([](core::WordFifo &fifo,
                   sim::Kernel &kn) -> sim::Co<void> {
            co_await kn.delay(sim::kMicrosecond);
            co_await fifo.send(30);
            co_await kn.delay(sim::kMicrosecond);
            co_await fifo.send(12);
        }(m.msgOut(), k));
        k.run(k.now() + sim::kMillisecond);
        ASSERT_TRUE(m.core().halted());
        EXPECT_EQ(m.core().debugOut(),
                  (std::vector<std::uint16_t>{42}));
    }
}

TEST(FastTierTest, RefusesFlatBus)
{
    // The class-cal table prices the split buses, so a flat-bus fast
    // node would run at hierarchical-bus cost: it must refuse instead.
    sim::Kernel k;
    CoreConfig cfg;
    cfg.flatBus = true;
    Machine m(k, cfg);
    m.load(assembler::assembleSnap("li r1, 1\n add r1, r1\n halt\n"));
    m.start(FidelityMode::Fast);
    try {
        k.run(k.now() + sim::kMillisecond);
        FAIL() << "fast flat-bus run was not refused";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("flatBus"), std::string::npos)
            << e.what();
    }
}

} // namespace
