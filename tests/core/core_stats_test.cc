/**
 * @file
 * Tests for per-event handler statistics and the activity timeline.
 */

#include <gtest/gtest.h>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "sim/kernel.hh"

namespace {

using namespace snaple;
using core::Machine;
using isa::EventNum;

const char *kTwoHandlers = R"(
    li r1, 0
    la r2, h0
    setaddr r1, r2
    li r1, 1
    la r2, h1
    setaddr r1, r2
    done
h0: ; 3 instructions
    inc r3
    dbgout r3
    done
h1: ; 5 instructions
    inc r4
    inc r4
    inc r4
    dbgout r4
    done
)";

TEST(CoreStatsTest, PerEventAttributionIsExact)
{
    sim::Kernel k;
    Machine m(k);
    m.load(assembler::assembleSnap(kTwoHandlers));
    m.start();
    k.runFor(sim::kMillisecond);
    for (int i = 0; i < 4; ++i)
        m.postEvent(EventNum::Timer0);
    for (int i = 0; i < 2; ++i)
        m.postEvent(EventNum::Timer1);
    k.runFor(10 * sim::kMillisecond);

    const auto &pe = m.core().stats().perEvent;
    auto t0 = pe[std::size_t(EventNum::Timer0)];
    auto t1 = pe[std::size_t(EventNum::Timer1)];
    EXPECT_EQ(t0.activations, 4u);
    EXPECT_EQ(t1.activations, 2u);
    // h0 = inc + dbgout + done = 3; h1 = 3x inc + dbgout + done = 5.
    EXPECT_DOUBLE_EQ(t0.instructionsPerActivation(), 3.0);
    EXPECT_DOUBLE_EQ(t1.instructionsPerActivation(), 5.0);
    // Boot instructions are not attributed to any event.
    std::uint64_t attributed = t0.instructions + t1.instructions;
    EXPECT_LT(attributed, m.core().stats().instructions);
}

TEST(CoreStatsTest, TimelineRecordsWakeSleepSpans)
{
    sim::Kernel k;
    Machine m(k);
    m.core().recordTimeline(true);
    m.load(assembler::assembleSnap(kTwoHandlers));
    m.start();
    k.runFor(sim::kMillisecond);
    sim::Tick push1 = k.now();
    m.postEvent(EventNum::Timer1);
    k.runFor(sim::kMillisecond);
    m.postEvent(EventNum::Timer0);
    k.runFor(sim::kMillisecond);

    const auto &tl = m.core().timeline();
    ASSERT_EQ(tl.size(), 3u);
    // Boot span starts at 0 and is unattributed (0xff).
    EXPECT_EQ(tl[0].wake, 0u);
    EXPECT_EQ(tl[0].firstEvent, 0xff);
    // First handler span: woke shortly after the push, evented 1.
    EXPECT_GE(tl[1].wake, push1);
    EXPECT_LT(tl[1].wake, push1 + sim::kMicrosecond);
    EXPECT_EQ(tl[1].firstEvent, 1);
    EXPECT_EQ(tl[2].firstEvent, 0);
    // Spans are ordered and non-overlapping.
    EXPECT_LE(tl[0].sleep, tl[1].wake);
    EXPECT_LE(tl[1].sleep, tl[2].wake);
}

TEST(CoreStatsTest, TimelineDisabledByDefault)
{
    sim::Kernel k;
    Machine m(k);
    m.load(assembler::assembleSnap(kTwoHandlers));
    m.start();
    k.runFor(sim::kMillisecond);
    m.postEvent(EventNum::Timer0);
    k.runFor(sim::kMillisecond);
    EXPECT_TRUE(m.core().timeline().empty());
}

TEST(CoreStatsTest, BackToBackHandlersShareOneSpan)
{
    sim::Kernel k;
    Machine m(k);
    m.core().recordTimeline(true);
    m.load(assembler::assembleSnap(kTwoHandlers));
    m.start();
    k.runFor(sim::kMillisecond);
    // Two tokens queued while asleep: one wake services both.
    m.postEvent(EventNum::Timer0);
    m.postEvent(EventNum::Timer1);
    k.runFor(sim::kMillisecond);
    EXPECT_EQ(m.core().timeline().size(), 2u); // boot + one span
    EXPECT_EQ(m.core().stats().handlers, 2u);
    EXPECT_EQ(m.core().stats().wakeups, 1u);
}

TEST(CoreStatsTest, CycleCoreTakesWakeupsInline)
{
    // A guard on the kernel's inline wake-up path (Kernel::suspendUntil):
    // the cycle core's delays and SRAM accesses that are the shard's next
    // event continue without a heap round trip. Both counts are
    // deterministic; a change that loses the path moves the first, one
    // that adds or drops kernel events moves the second.
    sim::Kernel k;
    Machine m(k);
    m.load(assembler::assembleSnap(R"(
        li  r1, 40
        li  r2, 100
    loop:
        stw r1, 0(r2)
        ldw r3, 0(r2)
        add r4, r3
        dec r1
        bnez r1, loop
        dbgout r4
        halt
    )"));
    m.start();
    k.runFor(sim::kMillisecond);
    ASSERT_TRUE(m.core().halted());
    EXPECT_EQ(m.core().stats().instructions, 204u);
    EXPECT_EQ(k.inlineWakeups(), 967u);
    EXPECT_EQ(k.eventsDispatched(), 2113u);
}

} // namespace
