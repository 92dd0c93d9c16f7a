/**
 * @file
 * Single-cell channel and transceiver tests: host-driven transceivers
 * on the network harness (host_radios.hh), no guest radio code.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "host_radios.hh"

namespace {

using namespace snaple;
using coproc::RadioMode;
using radio::Medium;
using radio::RadioConfig;
using radio::Transceiver;
using test::HostRadios;

/** Two radios, a and b, one shard each. */
struct Pair : HostRadios
{
    Transceiver &a = add();
    Transceiver &b = add();
};

TEST(RadioTest, WordAirtimeMatches19200Bps)
{
    Pair r;
    // 16 bits / 19200 bps = 833.3 us: "almost a millisecond per word".
    EXPECT_NEAR(sim::toUs(r.a.wordAirtime()), 833.3, 0.5);
}

TEST(RadioTest, WordsDeliverToReceiversInRxMode)
{
    Pair r;
    r.start();
    r.b.setMode(RadioMode::Rx);
    r.transmit(0, {0x1234, 0x5678});
    r.net.runFor(3 * sim::kMillisecond);
    ASSERT_EQ(r.b.rxWords().size(), 2u);
    EXPECT_EQ(r.b.stats().rxWords, 2u);
    EXPECT_EQ(r.net.stats().collisions, 0u);
}

TEST(RadioTest, IdleReceiversMissWords)
{
    Pair r;
    r.start();
    r.b.setMode(RadioMode::Idle);
    r.transmit(0, {0x1234});
    r.net.runFor(3 * sim::kMillisecond);
    EXPECT_EQ(r.b.rxWords().size(), 0u);
    EXPECT_EQ(r.b.stats().rxMissedWrongMode, 1u);
}

TEST(RadioTest, TransmitterDoesNotHearItself)
{
    Pair r;
    r.start();
    r.a.setMode(RadioMode::Rx); // even in RX mode
    r.transmit(0, {0x42});
    r.net.runFor(3 * sim::kMillisecond);
    EXPECT_EQ(r.a.rxWords().size(), 0u);
}

TEST(RadioTest, OverlappingTransmissionsCollide)
{
    Pair r;
    Transceiver &c = r.add();
    r.start();
    c.setMode(RadioMode::Rx);
    r.transmit(0, {0xAAAA});
    r.transmit(1, {0xBBBB});
    r.net.runFor(5 * sim::kMillisecond);
    EXPECT_EQ(c.rxWords().size(), 0u);
    EXPECT_EQ(r.net.stats().collisions, 2u);
}

TEST(RadioTest, CarrierSenseSeesBusyMedium)
{
    // The transmitter's own carrier is shard-local, so it needs no
    // barrier: busy from the first bit, clear once the word is off
    // the air. (TopologyTest.CarrierSenseReflectsAirState pins the
    // remote side.)
    Pair r;
    r.start();
    r.transmit(0, {0x1});
    r.net.runFor(100 * sim::kMicrosecond);
    EXPECT_TRUE(r.a.channelBusy());
    r.net.runFor(2 * sim::kMillisecond);
    EXPECT_FALSE(r.a.channelBusy());
}

TEST(RadioTest, RadioEnergyChargedPerWord)
{
    Pair r;
    r.start();
    r.b.setMode(RadioMode::Rx);
    r.transmit(0, {1, 2, 3});
    r.net.runFor(5 * sim::kMillisecond);
    RadioConfig cfg;
    EXPECT_DOUBLE_EQ(r.ctx(0).ledger.pj(energy::Cat::Radio),
                     3 * cfg.txPjPerWord);
    EXPECT_DOUBLE_EQ(r.ctx(1).ledger.pj(energy::Cat::Radio),
                     3 * cfg.rxPjPerWord);
}

TEST(RadioTest, FlightStorageStaysBoundedOverManyWords)
{
    // Regression: the channel used to keep one flight record per word
    // ever transmitted, so a chatty node grew the host's memory without
    // bound. Unresolved flights and unresolved delivery offers must
    // stay bounded by the words concurrently in the air, at every
    // barrier of a 100k-word run.
    Pair r;
    r.start();
    r.b.setMode(RadioMode::Rx);
    constexpr std::size_t kWords = 100000;
    r.transmit(0, std::vector<std::uint16_t>(kWords, 0xA5A5));
    std::size_t maxFlights = 0;
    std::uint64_t maxOffers = 0;
    for (int s = 0; s < 100; ++s) {
        r.net.runFor(sim::kSecond);
        maxFlights = std::max(maxFlights, r.net.airPendingFlights());
        maxOffers = std::max(maxOffers, r.net.airPendingDeliveries());
    }
    const Medium::Stats s = r.net.stats();
    ASSERT_EQ(s.wordsSent, kWords);
    // The receiver never drains its FIFO, so after the first 8 words
    // every offer is a counted FIFO drop — the acceptance arithmetic
    // still covers every word.
    EXPECT_EQ(s.wordsDelivered + s.dropsFifo, kWords);
    // One word in the air at a time (plus its in-propagation tail).
    EXPECT_LE(maxFlights, 1u);
    EXPECT_LE(maxOffers, 1u);
    EXPECT_EQ(r.net.airPendingFlights(), 0u);
    EXPECT_EQ(r.net.airPendingDeliveries(), 0u);
}

TEST(RadioTest, FlightStorageStaysBoundedUnderCollisions)
{
    // Collided flights resolve without any delivery; they must be
    // retired all the same.
    Pair r;
    r.start();
    for (int burst = 0; burst < 1000; ++burst) {
        r.transmit(0, {0x1111});
        r.transmit(1, {0x2222});
        r.net.runFor(3 * sim::kMillisecond);
        ASSERT_EQ(r.net.airPendingFlights(), 0u) << "burst " << burst;
    }
    ASSERT_EQ(r.net.stats().wordsSent, 2000u);
    EXPECT_EQ(r.net.stats().collisions, 2000u);
}

TEST(RadioTest, DeliveredCountsAcceptedWordsOnly)
{
    // Regression: the channel used to bump "air.words_delivered" for
    // every offer, even when the transceiver dropped the word (wrong
    // mode or full RX FIFO) — delivered could exceed what any receiver
    // ever saw. Delivery now counts acceptance; refusals land in the
    // explicit drop counters and the per-receiver arithmetic closes.
    Pair r;
    r.start();
    r.b.setMode(RadioMode::Idle); // word 1: offered, radio not in Rx
    r.transmit(0, {0x0001});
    r.net.runFor(3 * sim::kMillisecond);
    EXPECT_EQ(r.net.stats().wordsDelivered, 0u);
    EXPECT_EQ(r.net.stats().dropsMode, 1u);

    r.b.setMode(RadioMode::Rx); // words 2..10: 8 accepted, 1 overflows
    r.transmit(0, std::vector<std::uint16_t>(9, 0x2222));
    r.net.runFor(20 * sim::kMillisecond);
    const Medium::Stats s = r.net.stats();
    EXPECT_EQ(s.wordsDelivered, 8u); // default RX FIFO depth
    EXPECT_EQ(s.dropsFifo, 1u);
    EXPECT_EQ(s.wordsSent,
              s.wordsDelivered + s.dropsMode + s.dropsFifo);
    EXPECT_EQ(r.b.stats().rxWords, s.wordsDelivered);
}

TEST(RadioTest, DuplicateAttachIsIgnored)
{
    // Regression: a transceiver registered twice used to hear every
    // word twice (and be charged RX energy twice). Attaching the same
    // transceiver again is a no-op.
    Pair r;
    r.net.shardMedium(1).attach(&r.b);
    r.start();
    r.b.setMode(RadioMode::Rx);
    r.transmit(0, {0xBEEF});
    r.net.runFor(3 * sim::kMillisecond);
    EXPECT_EQ(r.b.rxWords().size(), 1u);
    EXPECT_EQ(r.b.stats().rxWords, 1u);
    EXPECT_EQ(r.net.stats().wordsDelivered, 1u);
    RadioConfig cfg;
    EXPECT_DOUBLE_EQ(r.ctx(1).ledger.pj(energy::Cat::Radio),
                     cfg.rxPjPerWord);
}

TEST(RadioTest, BackToBackWordsSpaceByAirtime)
{
    // Air-trace timestamps are the unquantised delivery instants, so
    // back-to-back words sit exactly one airtime apart whatever the
    // sync window.
    Pair r;
    r.net.enableAirTrace();
    r.start();
    r.b.setMode(RadioMode::Rx);
    r.transmit(0, {1, 2});
    r.net.runFor(5 * sim::kMillisecond);
    ASSERT_EQ(r.net.trace().size(), 2u);
    EXPECT_NEAR(sim::toUs(r.net.trace()[1].at - r.net.trace()[0].at),
                833.3, 1.0);
}

} // namespace
