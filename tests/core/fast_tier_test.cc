/**
 * @file
 * Tests for the fast fidelity tier (docs/SIMULATOR.md): the predecoded
 * interpreter must be architecturally bit-identical to the CHP cycle
 * tier — same registers, same dbgout stream, same message and timer
 * traffic, same instruction counts — and, without r15 or timer
 * traffic, agree with it to the tick and to 1e-9 in energy
 * (tests/core/instr_cost_test.cc checks the same form by form). Also
 * pins the `sti` predecode-line invalidation (self-modifying code),
 * the per-PC profile, and that recording commit records changes
 * nothing about a fast run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
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
      std::uint64_t *instructions = nullptr, sim::Tick *haltAt = nullptr)
{
    sim::Kernel k;
    Machine m(k);
    m.load(assembler::assembleSnap(src));
    m.start(fidelity);
    k.run(k.now() + 100 * sim::kMillisecond);
    EXPECT_TRUE(m.core().halted()) << "program did not halt";
    if (instructions)
        *instructions = m.core().stats().instructions;
    if (haltAt)
        *haltAt = k.now();
    return m.core().debugOut();
}

/** |a - b| within 1e-9 of the larger. */
bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/** Per-category dynamic energy of @p src run to halt at @p fidelity. */
std::array<double, energy::kNumCats>
ledgerAt(const std::string &src, FidelityMode fidelity,
         const CoreConfig &cfg = {}, sim::Tick *haltAt = nullptr)
{
    sim::Kernel k;
    Machine m(k, cfg);
    m.load(assembler::assembleSnap(src));
    m.start(fidelity);
    k.run(k.now() + 100 * sim::kMillisecond);
    EXPECT_TRUE(m.core().halted()) << "program did not halt";
    if (haltAt)
        *haltAt = k.now();
    std::array<double, energy::kNumCats> pj{};
    for (std::size_t c = 0; c < energy::kNumCats; ++c)
        pj[c] = m.ctx().ledger.pj(static_cast<energy::Cat>(c));
    return pj;
}

/** Both tiers' ledgers agree category by category. */
void
expectLedgersMatch(const std::array<double, energy::kNumCats> &fast,
                   const std::array<double, energy::kNumCats> &cycle)
{
    for (std::size_t c = 0; c < energy::kNumCats; ++c)
        EXPECT_TRUE(near(fast[c], cycle[c]))
            << energy::catName(static_cast<energy::Cat>(c)) << ": fast "
            << fast[c] << " cycle " << cycle[c];
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
    sim::Tick cycleHalt = 0, fastHalt = 0;
    const auto cycle = runAt(src, FidelityMode::Cycle, &cycleIns, &cycleHalt);
    const auto fast = runAt(src, FidelityMode::Fast, &fastIns, &fastHalt);
    EXPECT_EQ(cycle, fast);
    EXPECT_EQ(cycleIns, fastIns);
    EXPECT_GT(cycleIns, 4000u);
    // No r15 or timer traffic: the recurrence is tick-exact.
    EXPECT_EQ(fastHalt, cycleHalt);
}

TEST(FastTierTest, EnergyTracksCycleTierOnComputeMix)
{
    // Both tiers pay the same per-instruction charges
    // (core/instr_cost.hh); only the order of the floating-point sums
    // differs.
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
    expectLedgersMatch(ledgerAt(src, FidelityMode::Fast),
                       ledgerAt(src, FidelityMode::Cycle));
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

TEST(FastTierTest, FlatBusIsPricedExactly)
{
    // The flat-bus ablation moves every unit onto one loaded bus; the
    // cost function reads the same bus costs as the cycle tier, so a
    // flat-bus fast node runs at the cycle tier's time and energy.
    const std::string src = R"(
        li  r1, 300
        li  r4, 100
    loop:
        add r2, r1
        ldw r5, 0(r4)
        rand r3
        xor r5, r3
        stw r5, 1(r4)
        dec r1
        bnez r1, loop
        halt
    )";
    CoreConfig flat;
    flat.flatBus = true;
    sim::Tick cycleHalt = 0, fastHalt = 0, splitHalt = 0;
    const auto cycle = ledgerAt(src, FidelityMode::Cycle, flat, &cycleHalt);
    const auto fast = ledgerAt(src, FidelityMode::Fast, flat, &fastHalt);
    expectLedgersMatch(fast, cycle);
    EXPECT_EQ(fastHalt, cycleHalt);
    // And the knob is really on: the split-bus run differs.
    const auto split = ledgerAt(src, FidelityMode::Fast, {}, &splitHalt);
    EXPECT_NE(split[std::size_t(energy::Cat::Datapath)],
              fast[std::size_t(energy::Cat::Datapath)]);
    EXPECT_NE(splitHalt, fastHalt);
}

TEST(FastTierTest, ProfileMatchesCycleTier)
{
    // A stall-free program with a boot segment and two handler
    // activations: every (pc, handler) cell's count and retire-to-
    // retire ticks equal the cycle tier's. Energy per cell differs
    // (the cycle tier books fetch-ahead energy to whichever interval
    // it falls in), but the cells sum to the same total.
    const std::string src = R"(
        li  r1, 4
        la  r2, h
        setaddr r1, r2
        li  r3, 50
    boot:
        add r4, r3
        dec r3
        bnez r3, boot
        done
    h:
        li  r3, 20
    hl:
        xor r4, r3
        dec r3
        bnez r3, hl
        dec r5
        beqz r5, out
        done
    out:
        halt
    )";
    std::vector<sim::ProfileRow> rows[2];
    for (const FidelityMode f : {FidelityMode::Cycle, FidelityMode::Fast}) {
        sim::Kernel k;
        Machine m(k);
        m.load(assembler::assembleSnap(src));
        m.core().setReg(5, 2);
        m.core().enableProfile(true);
        m.postEvent(isa::EventNum::SensorIrq);
        m.postEvent(isa::EventNum::SensorIrq);
        m.start(f);
        k.run(k.now() + 100 * sim::kMillisecond);
        ASSERT_TRUE(m.core().halted());
        rows[f == FidelityMode::Fast] = m.core().profileRows();
    }
    const auto &cyc = rows[0], &fst = rows[1];
    ASSERT_EQ(fst.size(), cyc.size());
    EXPECT_GT(cyc.size(), 10u);
    double pj[2] = {0, 0};
    for (std::size_t i = 0; i < cyc.size(); ++i) {
        EXPECT_EQ(fst[i].handler, cyc[i].handler);
        EXPECT_EQ(fst[i].pc, cyc[i].pc);
        EXPECT_EQ(fst[i].count, cyc[i].count) << "pc " << cyc[i].pc;
        EXPECT_EQ(fst[i].ticks, cyc[i].ticks) << "pc " << cyc[i].pc;
        pj[0] += cyc[i].pj;
        pj[1] += fst[i].pj;
    }
    EXPECT_TRUE(near(pj[1], pj[0])) << pj[1] << " vs " << pj[0];
    EXPECT_TRUE(std::any_of(cyc.begin(), cyc.end(), [](const auto &r) {
        return r.handler == "SensorIrq" && r.count == 2 * 20;
    }));
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
