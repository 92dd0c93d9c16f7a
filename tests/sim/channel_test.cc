/**
 * @file
 * Unit tests for rendezvous channels and buffered FIFOs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/channel.hh"
#include "sim/kernel.hh"

namespace {

using namespace snaple::sim;

Co<void>
producer(Kernel &k, Channel<int> &ch, int n, Tick gap)
{
    for (int i = 0; i < n; ++i) {
        if (gap)
            co_await k.delay(gap);
        co_await ch.send(i);
    }
}

Co<void>
consumer(Channel<int> &ch, int n, std::vector<int> &out,
         std::vector<Tick> &at, Kernel &k)
{
    for (int i = 0; i < n; ++i) {
        int v = co_await ch.recv();
        out.push_back(v);
        at.push_back(k.now());
    }
}

TEST(ChannelTest, RendezvousTransfersValuesInOrder)
{
    Kernel k;
    Channel<int> ch(k, 0, "t");
    std::vector<int> out;
    std::vector<Tick> at;
    k.spawn(producer(k, ch, 5, 0));
    k.spawn(consumer(ch, 5, out, at, k));
    k.run();
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, HandshakeDelayAppliesPerCommunication)
{
    Kernel k;
    Channel<int> ch(k, 7, "t");
    std::vector<int> out;
    std::vector<Tick> at;
    k.spawn(producer(k, ch, 3, 0));
    k.spawn(consumer(ch, 3, out, at, k));
    k.run();
    ASSERT_EQ(at.size(), 3u);
    EXPECT_EQ(at[0], Tick{7});
    EXPECT_EQ(at[1], Tick{14});
    EXPECT_EQ(at[2], Tick{21});
}

TEST(ChannelTest, SenderBlocksUntilReceiverArrives)
{
    Kernel k;
    Channel<int> ch(k, 0, "t");
    std::vector<int> out;
    std::vector<Tick> at;
    k.spawn(producer(k, ch, 1, 0));
    k.runFor(100);
    EXPECT_TRUE(ch.senderWaiting());
    k.spawn(consumer(ch, 1, out, at, k));
    k.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(at[0], Tick{100});
}

TEST(ChannelTest, ReceiverBlocksUntilSenderArrives)
{
    Kernel k;
    Channel<int> ch(k, 0, "t");
    std::vector<int> out;
    std::vector<Tick> at;
    k.spawn(consumer(ch, 1, out, at, k));
    k.runFor(50);
    EXPECT_TRUE(ch.receiverWaiting());
    k.spawn(producer(k, ch, 1, 0));
    k.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(at[0], Tick{50});
}

Co<void>
sendOne(Channel<int> &ch, int v)
{
    co_await ch.send(v);
}

TEST(ChannelTest, TwoSendersPanics)
{
    Kernel k;
    Channel<int> ch(k, 0, "t");
    k.spawn(sendOne(ch, 1));
    k.spawn(sendOne(ch, 2));
    EXPECT_THROW(k.run(), PanicError);
}

Co<void>
fifoProducer(Fifo<int> &f, int n)
{
    for (int i = 0; i < n; ++i)
        co_await f.send(i);
}

Co<void>
fifoConsumer(Kernel &k, Fifo<int> &f, int n, Tick gap, std::vector<int> &out)
{
    for (int i = 0; i < n; ++i) {
        if (gap)
            co_await k.delay(gap);
        out.push_back(co_await f.recv());
    }
}

TEST(FifoTest, BufferDecouplesProducerFromConsumer)
{
    Kernel k;
    Fifo<int> f(k, 4, 0, "f");
    std::vector<int> out;
    k.spawn(fifoProducer(f, 4));
    k.runFor(10);
    EXPECT_EQ(f.size(), 4u);
    k.spawn(fifoConsumer(k, f, 4, 5, out));
    k.run();
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FifoTest, SenderBlocksWhenFull)
{
    Kernel k;
    Fifo<int> f(k, 2, 0, "f");
    std::vector<int> out;
    k.spawn(fifoProducer(f, 5));
    k.runFor(10);
    EXPECT_EQ(f.size(), 2u); // two buffered, one blocked, two unsent
    k.spawn(fifoConsumer(k, f, 5, 1, out));
    k.run();
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(f.accepted(), 5u);
}

TEST(FifoTest, TryPushDropsWhenFull)
{
    Kernel k;
    Fifo<int> f(k, 2, 0, "f");
    EXPECT_TRUE(f.tryPush(1));
    EXPECT_TRUE(f.tryPush(2));
    EXPECT_FALSE(f.tryPush(3));
    EXPECT_EQ(f.dropped(), 1u);
    EXPECT_EQ(f.accepted(), 2u);
}

TEST(FifoTest, TryPushWakesBlockedReceiverAfterDelay)
{
    Kernel k;
    Fifo<int> f(k, 2, /*op_delay=*/18, "evq");
    std::vector<int> out;
    std::vector<Tick> at;
    k.spawn([](Kernel &kk, Fifo<int> &ff, std::vector<int> &o,
               std::vector<Tick> &a) -> Co<void> {
        int v = co_await ff.recv();
        o.push_back(v);
        a.push_back(kk.now());
    }(k, f, out, at));
    k.runFor(100);
    EXPECT_TRUE(f.tryPush(42));
    k.run();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 42);
    // Wake-up latency: the receiver resumed one op-delay after the push.
    EXPECT_EQ(at[0], Tick{118});
}

TEST(FifoTest, MultipleWaitingReceiversServedInFifoOrder)
{
    Kernel k;
    Fifo<int> f(k, 4, 0, "f");
    std::vector<int> got(3, -1);
    for (int i = 0; i < 3; ++i) {
        k.spawn([](Fifo<int> &ff, int &slot) -> Co<void> {
            slot = co_await ff.recv();
        }(f, got[i]));
    }
    k.runFor(1);
    f.tryPush(10);
    f.tryPush(20);
    f.tryPush(30);
    k.run();
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

Co<void>
sendOneTo(Fifo<int> &f, int v)
{
    co_await f.send(v);
}

TEST(FifoTest, RingKeepsOrderAcrossTheWrap)
{
    Kernel k;
    Fifo<int> f(k, 3, 0, "ring");
    std::vector<int> out;
    int next = 0;
    // Five rounds of fill-to-full then drain-by-two walk the head
    // around the three slots several times.
    for (int round = 0; round < 5; ++round) {
        while (!f.full())
            EXPECT_TRUE(f.tryPush(next++));
        EXPECT_FALSE(f.tryPush(-1));
        k.spawn(fifoConsumer(k, f, 2, 0, out));
        k.run();
        const std::vector<int> left = f.bufferState();
        ASSERT_EQ(left.size(), 1u);
        EXPECT_EQ(left[0], next - 1);
    }
    // Each round pops the value the last one left and the first new
    // one, so the pops are exactly 0..9.
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    EXPECT_EQ(f.dropped(), 5u);
    EXPECT_EQ(f.accepted(), std::uint64_t(next));
}

TEST(FifoTest, ManyBlockedSendersAreAdmittedInArrivalOrder)
{
    // Many parked senders, with new ones arriving while earlier ones
    // are still parked.
    Kernel k;
    Fifo<int> f(k, 1, 0, "busy");
    std::vector<int> out;
    for (int i = 0; i < 70; ++i)
        k.spawn(sendOneTo(f, i));
    k.runFor(1);
    k.spawn(fifoConsumer(k, f, 40, 0, out));
    k.runFor(1);
    for (int i = 70; i < 140; ++i)
        k.spawn(sendOneTo(f, i));
    k.runFor(1);
    k.spawn(fifoConsumer(k, f, 100, 0, out));
    k.run();
    ASSERT_EQ(out.size(), 140u);
    for (int i = 0; i < 140; ++i)
        EXPECT_EQ(out[std::size_t(i)], i);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.accepted(), 140u);
}

TEST(FifoTest, FullBufferRestoredThroughRestoreStatePopsInOrder)
{
    Kernel k;
    Fifo<int> f(k, 4, 0, "evq");
    // Move the ring's head off slot 0 first, as a live run would.
    EXPECT_TRUE(f.tryPush(1));
    EXPECT_TRUE(f.tryPush(2));
    std::vector<int> out;
    k.spawn(fifoConsumer(k, f, 1, 0, out));
    k.run();

    const std::vector<int> saved = {7, 8, 9, 10};
    f.restoreState(saved, 12, 3);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.bufferState(), saved);
    EXPECT_EQ(f.accepted(), 12u);
    EXPECT_EQ(f.dropped(), 3u);
    EXPECT_FALSE(f.tryPush(11));
    EXPECT_EQ(f.dropped(), 4u);

    out.clear();
    k.spawn(fifoConsumer(k, f, 4, 0, out));
    k.run();
    EXPECT_EQ(out, saved);
    EXPECT_TRUE(f.empty());
    EXPECT_THROW(f.restoreState(std::vector<int>(5, 0), 0, 0), PanicError);
}

} // namespace
