/**
 * @file
 * Link-filter / topology tests for the single-cell channel, the
 * carrier-sense surface used by the guest MAC, and idle-listening
 * energy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "host_radios.hh"

namespace {

using namespace snaple;
using coproc::RadioMode;
using radio::Transceiver;
using test::HostRadios;

TEST(TopologyTest, LinkFilterRestrictsDelivery)
{
    HostRadios r;
    r.add();
    Transceiver &b = r.add();
    Transceiver &c = r.add();
    b.setMode(RadioMode::Rx);
    c.setMode(RadioMode::Rx);
    // Only 0 -> 1 is connected.
    r.net.setLinkFilter([](std::size_t src, std::size_t dst) {
        return src == 0 && dst == 1;
    });
    r.start();
    r.transmit(0, {0x1234});
    r.net.runFor(5 * sim::kMillisecond);
    EXPECT_EQ(b.rxWords().size(), 1u);
    EXPECT_EQ(c.rxWords().size(), 0u);
    // The filter gates delivery, not the energy of listening... the
    // out-of-range node never saw the word at all.
    EXPECT_EQ(c.stats().rxWords, 0u);
}

TEST(TopologyTest, CollisionsAreGlobalEvenWithTopology)
{
    // One shared channel: two transmissions overlap in time and
    // garble each other even if their receivers don't overlap.
    HostRadios r;
    r.add();
    Transceiver &b = r.add();
    r.add();
    Transceiver &d = r.add();
    b.setMode(RadioMode::Rx);
    d.setMode(RadioMode::Rx);
    r.net.setLinkFilter([](std::size_t src, std::size_t dst) {
        return (src == 0 && dst == 1) || (src == 2 && dst == 3);
    });
    r.start();
    r.transmit(0, {1});
    r.transmit(2, {2});
    r.net.runFor(5 * sim::kMillisecond);
    EXPECT_EQ(r.net.stats().collisions, 2u);
    EXPECT_EQ(b.rxWords().size(), 0u);
    EXPECT_EQ(d.rxWords().size(), 0u);
}

TEST(TopologyTest, CarrierSenseReflectsAirState)
{
    // The lookahead rule: a word that starts inside window (B-W, B] is
    // visible to other shards' carrier sense from barrier B on, until
    // its last bit leaves the air. Its own transmitter senses it at
    // once. Sampled from inside the shards, with W = 100 us and a word
    // on the air over [10 us, ~843 us).
    HostRadios r;
    Transceiver &a = r.add();
    Transceiver &b = r.add();
    r.start(100 * sim::kMicrosecond);
    EXPECT_FALSE(b.channelBusy());
    r.transmit(0, {7}, 10 * sim::kMicrosecond);

    std::vector<bool> seenB, seenA;
    for (const sim::Tick t : {50 * sim::kMicrosecond,
                              150 * sim::kMicrosecond,
                              900 * sim::kMicrosecond})
        r.net.shardKernel(1).schedule(
            t, [&] { seenB.push_back(b.channelBusy()); });
    r.net.shardKernel(0).schedule(
        50 * sim::kMicrosecond, [&] { seenA.push_back(a.channelBusy()); });
    r.net.runFor(2 * sim::kMillisecond);

    // b: not yet at 50 us (before the 100 us barrier), busy at 150 us,
    // clear again at 900 us.
    EXPECT_EQ(seenB, (std::vector<bool>{false, true, false}));
    EXPECT_EQ(seenA, (std::vector<bool>{true})); // own word counts
    EXPECT_FALSE(b.channelBusy());
}

TEST(ListenEnergyTest, RxModeAccruesIdleListeningPower)
{
    HostRadios r;
    Transceiver &t = r.add();
    r.start();
    // One second in Rx mode at 11.4 mW = 11.4 mJ = 1.14e10 pJ.
    t.setMode(RadioMode::Rx);
    r.net.runFor(sim::kSecond);
    EXPECT_NEAR(r.ctx(0).energy().pj(energy::Cat::Radio), 11.4e9, 1e7);
    // Idle mode accrues nothing further.
    t.setMode(RadioMode::Idle);
    r.net.runFor(sim::kSecond);
    EXPECT_NEAR(r.ctx(0).energy().pj(energy::Cat::Radio), 11.4e9, 1e7);
}

TEST(ListenEnergyTest, SelfPoweredRadioListensForFree)
{
    HostRadios r;
    radio::RadioConfig cfg;
    cfg.selfPowered = true;
    Transceiver &t = r.add(cfg);
    r.start();
    t.setMode(RadioMode::Rx);
    r.net.runFor(sim::kSecond);
    EXPECT_DOUBLE_EQ(r.ctx(0).energy().pj(energy::Cat::Radio), 0.0);
}

} // namespace
