/**
 * @file
 * Unit tests for the discrete-event kernel and coroutine tasks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/kernel.hh"
#include "sim/ticks.hh"

namespace {

using namespace snaple::sim;

TEST(TicksTest, ConversionsRoundTrip)
{
    EXPECT_EQ(fromNs(2.5), Tick{2500});
    EXPECT_EQ(fromUs(1.0), Tick{1000000});
    EXPECT_EQ(fromMs(1.0), kMillisecond);
    EXPECT_EQ(fromSec(1.0), kSecond);
    EXPECT_DOUBLE_EQ(toNs(2500), 2.5);
    EXPECT_DOUBLE_EQ(toSec(kSecond), 1.0);
}

TEST(KernelTest, EventsFireInTimeOrder)
{
    Kernel k;
    std::vector<int> order;
    k.schedule(30, [&] { order.push_back(3); });
    k.schedule(10, [&] { order.push_back(1); });
    k.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(k.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(k.now(), Tick{30});
}

TEST(KernelTest, SameTickEventsFireInInsertionOrder)
{
    Kernel k;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        k.schedule(5, [&order, i] { order.push_back(i); });
    k.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(KernelTest, RunUntilStopsAtLimit)
{
    Kernel k;
    int fired = 0;
    k.schedule(100, [&] { ++fired; });
    k.schedule(200, [&] { ++fired; });
    EXPECT_FALSE(k.run(150));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(k.now(), Tick{150});
    EXPECT_TRUE(k.run());
    EXPECT_EQ(fired, 2);
}

TEST(KernelTest, StopRequestHaltsDispatch)
{
    Kernel k;
    int fired = 0;
    k.schedule(1, [&] {
        ++fired;
        k.stop();
    });
    k.schedule(2, [&] { ++fired; });
    k.run();
    EXPECT_EQ(fired, 1);
    // Remaining event still pending; a second run drains it.
    k.run();
    EXPECT_EQ(fired, 2);
}

TEST(KernelTest, SchedulingInThePastPanics)
{
    Kernel k;
    k.schedule(100, [] {});
    k.run();
    EXPECT_THROW(k.schedule(50, [] {}), PanicError);
}

Co<void>
delayTwice(Kernel &k, std::vector<Tick> &marks)
{
    co_await k.delay(10);
    marks.push_back(k.now());
    co_await k.delay(15);
    marks.push_back(k.now());
}

TEST(TaskTest, DelaysAdvanceSimulatedTime)
{
    Kernel k;
    std::vector<Tick> marks;
    k.spawn(delayTwice(k, marks));
    k.run();
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_EQ(marks[0], Tick{10});
    EXPECT_EQ(marks[1], Tick{25});
}

Co<int>
addAfter(Kernel &k, int a, int b, Tick d)
{
    co_await k.delay(d);
    co_return a + b;
}

Co<void>
caller(Kernel &k, int &out)
{
    int x = co_await addAfter(k, 2, 3, 7);
    int y = co_await addAfter(k, x, 10, 3);
    out = y;
}

TEST(TaskTest, NestedCoroutinesReturnValues)
{
    Kernel k;
    int out = 0;
    k.spawn(caller(k, out));
    k.run();
    EXPECT_EQ(out, 15);
    EXPECT_EQ(k.now(), Tick{10});
}

Co<void>
throwingProc(Kernel &k)
{
    co_await k.delay(5);
    throw std::runtime_error("boom");
}

TEST(TaskTest, RootExceptionSurfacesFromRun)
{
    Kernel k;
    k.spawn(throwingProc(k));
    EXPECT_THROW(k.run(), std::runtime_error);
}

Co<int>
throwingChild(Kernel &k)
{
    co_await k.delay(1);
    throw FatalError("child failed");
    co_return 0; // unreachable
}

Co<void>
catchingParent(Kernel &k, bool &caught)
{
    try {
        (void)co_await throwingChild(k);
    } catch (const FatalError &) {
        caught = true;
    }
}

TEST(TaskTest, ChildExceptionPropagatesToAwaitingParent)
{
    Kernel k;
    bool caught = false;
    k.spawn(catchingParent(k, caught));
    k.run();
    EXPECT_TRUE(caught);
}

Co<void>
neverFinishes(Kernel &k)
{
    for (;;)
        co_await k.delay(1000);
}

TEST(TaskTest, KernelTeardownWithLiveProcessesDoesNotLeak)
{
    // Exercised under ASan in CI-like runs; here we just make sure it
    // does not crash.
    Kernel k;
    k.spawn(neverFinishes(k));
    k.run(10 * 1000);
    SUCCEED();
}

TEST(KernelTest, ZeroDelayAwaitYieldsToSameTickEvents)
{
    Kernel k;
    std::vector<int> order;
    k.spawn([](Kernel &kk, std::vector<int> &ord) -> Co<void> {
        ord.push_back(1);
        co_await kk.delay(0);
        ord.push_back(3);
    }(k, order));
    k.schedule(0, [&] { order.push_back(2); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(KernelTest, SameTickFifoOrderSurvivesChurn)
{
    // Equal-tick insertion order must hold even when dispatch itself
    // keeps scheduling more same-tick events: this is what exercises
    // the heap's sift paths (and, before that, the arena recycling)
    // rather than a quiet pre-built queue.
    Kernel k;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        k.schedule(100, [&order, &k, i] {
            order.push_back(i);
            // Same-tick follow-up, interleaved with future noise.
            k.schedule(100, [&order, i] { order.push_back(100 + i); });
            k.schedule(200 + i, [] {});
        });
    }
    k.run();
    std::vector<int> expect;
    for (int i = 0; i < 8; ++i)
        expect.push_back(i);
    for (int i = 0; i < 8; ++i)
        expect.push_back(100 + i);
    EXPECT_EQ(order, expect);
}

TEST(KernelTest, RunToDrainLeavesTimeAtLastEvent)
{
    // Bare run(): "run to completion" ends when the model went
    // quiescent, not at the end of time.
    Kernel k;
    k.schedule(500, [] {});
    EXPECT_TRUE(k.run());
    EXPECT_EQ(k.now(), Tick{500});
}

TEST(KernelTest, RunForAdvancesTimeEvenWhenDrained)
{
    // An explicit limit advances now() to the limit even if the queue
    // drains first, so callers can interleave runFor() with external
    // stimulus at predictable times.
    Kernel k;
    k.schedule(10, [] {});
    EXPECT_TRUE(k.runFor(1000));
    EXPECT_EQ(k.now(), Tick{1000});

    // Repeated runFor() after the drain keeps accumulating time...
    EXPECT_TRUE(k.runFor(250));
    EXPECT_EQ(k.now(), Tick{1250});
    EXPECT_TRUE(k.runFor(250));
    EXPECT_EQ(k.now(), Tick{1500});

    // ...and runFor(0) is a predictable no-op.
    EXPECT_TRUE(k.runFor(0));
    EXPECT_EQ(k.now(), Tick{1500});

    // New work scheduled after a drain still runs at the right time.
    bool fired = false;
    k.scheduleAfter(100, [&] { fired = true; });
    EXPECT_TRUE(k.runFor(200));
    EXPECT_TRUE(fired);
    EXPECT_EQ(k.now(), Tick{1700});
}

TEST(KernelTest, StopFromMidEventPreservesRemainingQueue)
{
    Kernel k;
    std::vector<int> order;
    k.schedule(10, [&] { order.push_back(1); });
    k.schedule(20, [&] {
        order.push_back(2);
        k.stop();
    });
    k.schedule(30, [&] { order.push_back(3); });
    EXPECT_TRUE(k.run());
    // stop() returns after the current event; the rest stays queued.
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(k.now(), Tick{10 + 10});
    EXPECT_EQ(k.pendingEvents(), 1u);
    // A later run() resumes exactly where the last one stopped.
    EXPECT_TRUE(k.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(KernelTest, SteadyStateSchedulingIsAllocationFree)
{
    // The tentpole invariant: once the heap and callback arena have
    // grown to the peak number of simultaneously pending events,
    // further scheduling must not grow either structure.
    Kernel k;
    k.spawn([](Kernel &kk) -> Co<void> {
        for (int i = 0; i < 1000; ++i) {
            kk.scheduleAfter(3, [] {});
            co_await kk.delay(2);
        }
    }(k));
    // Warm up: reach the peak working set.
    k.runFor(50);
    const std::size_t heap_cap = k.eventHeapCapacity();
    const std::size_t arena = k.callbackArenaSlots();
    ASSERT_GT(heap_cap, 0u);
    ASSERT_GT(arena, 0u);
    // Steady state: thousands more events, zero structural growth.
    k.run();
    EXPECT_EQ(k.eventHeapCapacity(), heap_cap);
    EXPECT_EQ(k.callbackArenaSlots(), arena);
}

// ---- suspendUntil(): a wake-up that is the kernel's next event runs
// inline, with the same observable order and counters as a push/pop.

TEST(KernelInlineWakeup, StrictNextWakeupIsTakenInline)
{
    Kernel k;
    std::vector<int> order;
    k.schedule(100, [&] { order.push_back(2); });
    k.spawn([](Kernel &kk, std::vector<int> &ord) -> Co<void> {
        co_await kk.delay(10); // 10 < 100: nothing can come between
        EXPECT_EQ(kk.now(), Tick{10});
        EXPECT_EQ(kk.pendingEvents(), 1u);
        ord.push_back(1);
    }(k, order));
    k.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(k.inlineWakeups(), 1u);
}

TEST(KernelInlineWakeup, SameTickTieFiresThePendingEventFirst)
{
    Kernel k;
    std::vector<int> order;
    k.spawn([](Kernel &kk, std::vector<int> &ord) -> Co<void> {
        co_await kk.delay(10);
        ord.push_back(2);
    }(k, order));
    // Scheduled before the wake-up exists, so it has the lower seq.
    k.schedule(10, [&] { order.push_back(1); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(k.inlineWakeups(), 0u);
}

TEST(KernelInlineWakeup, ZeroDelayYieldsToAnEventAlreadyAtTheSameTick)
{
    Kernel k;
    std::vector<int> order;
    k.spawn([](Kernel &kk, std::vector<int> &ord) -> Co<void> {
        co_await kk.delay(0); // an event is pending at tick 0: yield
        ord.push_back(2);
        co_await kk.delay(0); // nothing else at tick 0: inline
        ord.push_back(3);
    }(k, order));
    k.schedule(0, [&] { order.push_back(1); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(k.inlineWakeups(), 1u);
    EXPECT_EQ(k.now(), Tick{0});
}

TEST(KernelInlineWakeup, WakeupPastTheLimitStaysPending)
{
    Kernel k;
    bool resumed = false;
    k.spawn([](Kernel &kk, bool &r) -> Co<void> {
        co_await kk.delay(100);
        r = true;
    }(k, resumed));
    EXPECT_FALSE(k.run(50));
    EXPECT_FALSE(resumed);
    EXPECT_EQ(k.now(), Tick{50});
    EXPECT_EQ(k.pendingEvents(), 1u);
    EXPECT_EQ(k.inlineWakeups(), 0u);
    // A wake-up exactly at the limit is still within it.
    EXPECT_TRUE(k.run(100));
    EXPECT_TRUE(resumed);
    EXPECT_EQ(k.now(), Tick{100});
}

TEST(KernelInlineWakeup, WakeupAfterStopStaysPending)
{
    Kernel k;
    bool resumed = false;
    k.spawn([](Kernel &kk, bool &r) -> Co<void> {
        kk.stop();
        co_await kk.delay(5);
        r = true;
    }(k, resumed));
    EXPECT_TRUE(k.run());
    EXPECT_FALSE(resumed);
    EXPECT_EQ(k.now(), Tick{0});
    EXPECT_EQ(k.pendingEvents(), 1u);
    EXPECT_EQ(k.inlineWakeups(), 0u);
    k.run();
    EXPECT_TRUE(resumed);
    EXPECT_EQ(k.now(), Tick{5});
}

TEST(KernelInlineWakeup, CountersAdvanceExactlyAsOnTheScheduledPath)
{
    // The same timeline twice: a process whose delays all go inline,
    // and a chain of callbacks, which always takes the heap.
    const Tick steps[] = {3, 0, 5};
    Kernel inl;
    std::uint64_t seqAfterFirst = 0;
    inl.spawn([](Kernel &kk, const Tick *d, std::uint64_t &seq)
                  -> Co<void> {
        co_await kk.delay(d[0]);
        // A schedule right after an inline wake-up gets the seq it
        // would have had after a pop.
        kk.schedule(kk.now() + 100, [] {});
        seq = kk.lastScheduledSeq();
        co_await kk.delay(d[1]);
        co_await kk.delay(d[2]);
    }(inl, steps, seqAfterFirst));
    inl.run();

    Kernel heap;
    std::uint64_t heapSeqAfterFirst = 0;
    heap.schedule(0, [&] {
        heap.scheduleAfter(steps[0], [&] {
            heap.schedule(heap.now() + 100, [] {});
            heapSeqAfterFirst = heap.lastScheduledSeq();
            heap.scheduleAfter(steps[1], [&] {
                heap.scheduleAfter(steps[2], [] {});
            });
        });
    });
    heap.run();

    EXPECT_EQ(inl.inlineWakeups(), 3u);
    EXPECT_EQ(heap.inlineWakeups(), 0u);
    EXPECT_EQ(seqAfterFirst, heapSeqAfterFirst);
    EXPECT_EQ(inl.eventsDispatched(), heap.eventsDispatched());
    EXPECT_EQ(inl.lastScheduledSeq(), heap.lastScheduledSeq());
    EXPECT_EQ(inl.now(), heap.now());
    EXPECT_EQ(inl.now(), Tick{103});
}

TEST(KernelInlineWakeup, NestedRunPanics)
{
    Kernel k;
    k.schedule(1, [&] { k.run(); });
    EXPECT_THROW(k.run(), PanicError);
    // The failed entry did not leave the kernel marked as running.
    bool fired = false;
    k.schedule(2, [&] { fired = true; });
    EXPECT_TRUE(k.run());
    EXPECT_TRUE(fired);
}

} // namespace
