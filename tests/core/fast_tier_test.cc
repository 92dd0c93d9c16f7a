/**
 * @file
 * Tests for the fast fidelity tier (docs/SIMULATOR.md): the predecoded
 * statistical interpreter must be architecturally bit-identical to the
 * CHP cycle tier — same registers, same dbgout stream, same message
 * and timer traffic, same instruction counts — with only time and
 * energy modeled statistically. Also pins the `sti` predecode-line
 * invalidation (self-modifying code) and that recording commit records
 * changes nothing about a fast run.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "ref/commit_log.hh"
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

/** What a fast run leaves behind, for comparing runs. */
struct FastRun
{
    sim::Tick end = 0;
    core::SnapCore::Stats stats;
    std::array<double, energy::kNumCats> pj{};
    std::vector<std::uint16_t> dbg;
    std::size_t records = 0;
    std::size_t dispatches = 0;
};

/**
 * Run a program that spans several fast-tier slices, stalls on an r15
 * write and an r15 read, sends a timer command and dispatches its
 * event. With @p attachAt a commit sink is attached once the kernel
 * reaches that time (0 = before start, kMaxTick = never).
 */
FastRun
runFastWithSink(sim::Tick attachAt)
{
    const char *src = R"(
        li r1, 0
        la r2, h
        setaddr r1, r2
        li r3, 700
    loop:
        add r4, r3
        xori r4, 0x1234
        dec r3
        bnez r3, loop
        mov r15, r4
        mov r5, r15
        dbgout r5
        li r1, 0
        li r2, 2000
        schedlo r1, r2
        done
    h:
        dbgout r4
        halt
    )";
    sim::Kernel k;
    Machine m(k);
    m.load(assembler::assembleSnap(src));
    ref::CommitSink sink;
    if (attachAt == 0)
        m.core().setCommitSink(&sink);
    m.start(FidelityMode::Fast);
    k.spawn([](Machine &mm) -> sim::Co<void> {
        for (;;) {
            const std::uint16_t w = co_await mm.msgIn().recv();
            co_await mm.msgOut().send(static_cast<std::uint16_t>(~w));
        }
    }(m));
    if (attachAt != 0 && attachAt != sim::kMaxTick) {
        k.run(attachAt);
        EXPECT_GT(m.core().stats().instructions, 0u);
        EXPECT_FALSE(m.core().halted());
        m.core().setCommitSink(&sink);
    }
    k.run(k.now() + 100 * sim::kMillisecond);
    EXPECT_TRUE(m.core().halted());

    FastRun r;
    r.end = k.now();
    r.stats = m.core().stats();
    for (std::size_t c = 0; c < energy::kNumCats; ++c)
        r.pj[c] = m.ctx().ledger.pj(static_cast<energy::Cat>(c));
    r.dbg = m.core().debugOut();
    r.records = sink.size();
    for (const ref::CommitRecord &rec : sink.log())
        r.dispatches += rec.kind == ref::CommitKind::Dispatch;
    return r;
}

TEST(FastTierTest, CommitSinkChangesNothing)
{
    // The fast tier builds commit records in a separate instantiation
    // of its engine environment; both must run the same machine.
    const FastRun plain = runFastWithSink(sim::kMaxTick);
    const FastRun sunk = runFastWithSink(0);
    const FastRun late = runFastWithSink(sim::kMicrosecond);
    EXPECT_EQ(plain.records, 0u);
    EXPECT_EQ(sunk.records, sunk.stats.instructions + sunk.dispatches);
    EXPECT_EQ(sunk.dispatches, 1u);
    EXPECT_GT(late.records, 0u);
    EXPECT_LT(late.records, sunk.records);
    for (const FastRun *r : {&sunk, &late}) {
        EXPECT_EQ(r->end, plain.end);
        EXPECT_EQ(r->stats, plain.stats);
        EXPECT_EQ(r->pj, plain.pj);
        EXPECT_EQ(r->dbg, plain.dbg);
    }
    EXPECT_EQ(plain.dbg.size(), 2u);
}

} // namespace
