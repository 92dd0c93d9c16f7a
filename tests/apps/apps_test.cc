/**
 * @file
 * Integration tests for the SNAP guest application suite: MAC frame
 * exchange, AODV discovery and multi-hop forwarding, the Table 1
 * applications, and the MICA radio-stack port (verified against the
 * host SEC-DED and CRC references).
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "net/crc.hh"
#include "net/parallel_network.hh"
#include "net/secded.hh"
#include "sensor/sensor.hh"

namespace {

using namespace snaple;
using apps::layout::kStDeliv;
using apps::layout::kStFwd;
using apps::layout::kStRtOk;
using assembler::assembleSnap;
using net::ParallelNetwork;
using node::NodeConfig;

NodeConfig
cfgFor(const std::string &name, bool radio = true)
{
    NodeConfig c;
    c.name = name;
    c.attachRadio = radio;
    c.core.stopOnHalt = false;
    return c;
}

TEST(AppsAsmTest, AllProgramsAssemble)
{
    EXPECT_GT(assembleSnap(apps::relayNodeProgram(1)).imemWords(), 100u);
    EXPECT_GT(assembleSnap(apps::sinkNodeProgram(2)).imemWords(), 100u);
    EXPECT_GT(
        assembleSnap(apps::senderNodeProgram(1, 2, {10, 20})).imemWords(),
        100u);
    EXPECT_GT(assembleSnap(apps::thresholdNodeProgram(3)).imemWords(),
              100u);
    EXPECT_GT(assembleSnap(apps::temperatureProgram()).imemWords(), 40u);
    EXPECT_GT(assembleSnap(apps::blinkProgram()).imemWords(), 20u);
    EXPECT_GT(assembleSnap(apps::senseProgram()).imemWords(), 40u);
    EXPECT_GT(assembleSnap(apps::radioStackProgram({1, 2, 3})).imemWords(),
              100u);
}

TEST(AppsAsmTest, CodeSizesFitTheFootprintClaim)
{
    // Section 4.5: the whole application suite fits in 2.8 KB, leaving
    // room in the 4 KB IMEM. Our MAC+AODV node must also fit easily.
    // The full node (MAC + CSMA + rx timeout + AODV + app) stays
    // well under the paper's 2.8 KB application-suite footprint.
    auto p = assembleSnap(apps::thresholdNodeProgram(1));
    EXPECT_LT(p.imemBytes(), 2800u);
    EXPECT_LT(p.imemWords(), isa::kMemWords);
}

TEST(AppsMacTest, OneHopDataDelivery)
{
    ParallelNetwork net;
    auto &snd = net.addNode(cfgFor("a"),
                            assembleSnap(apps::senderNodeProgram(
                                1, 2, {111, 222, 333})));
    auto &sink =
        net.addNode(cfgFor("b"), assembleSnap(apps::sinkNodeProgram(2)));
    net.start();
    net.runFor(600 * sim::kMillisecond);

    // Route discovery (RREQ/RREP) then the data packet.
    EXPECT_EQ(sink.core().debugOut(),
              (std::vector<std::uint16_t>{111, 222, 333}));
    EXPECT_EQ(sink.dmem().peek(kStDeliv), 1u);
    EXPECT_EQ(snd.dmem().peek(kStRtOk), 1u); // RREP reached the origin
    EXPECT_EQ(net.stats().collisions, 0u);
}

TEST(AppsMacTest, ChecksumRejectsCorruptedFrames)
{
    // Drive the MAC receiver directly with a corrupted frame.
    ParallelNetwork net;
    auto &sink =
        net.addNode(cfgFor("b"), assembleSnap(apps::sinkNodeProgram(2)));
    net.start();
    net.runFor(5 * sim::kMillisecond);
    // header: DATA | hop 1 | src 1 | dst 2 ; nexthop 2 | len 1
    std::uint16_t hdr = 0x1000 | (1u << 8) | (1u << 4) | 2u;
    std::uint16_t lenw = (2u << 12) | 1u;
    std::uint16_t payload = 42;
    std::uint16_t bad_cksum =
        static_cast<std::uint16_t>(hdr + lenw + payload + 1);
    for (std::uint16_t w : {hdr, lenw, payload, bad_cksum})
        sink.transceiver()->rxWords().tryPush(w);
    // Nudge the rx process: words already queued, deliver events.
    net.runFor(50 * sim::kMillisecond);
    EXPECT_EQ(sink.dmem().peek(apps::layout::kStBadCk), 1u);
    EXPECT_EQ(sink.dmem().peek(kStDeliv), 0u);
    EXPECT_TRUE(sink.core().debugOut().empty());
}

TEST(AppsAodvTest, ThreeHopDiscoveryAndForwarding)
{
    // Line topology 1 - 2 - 3 - 4: node 1 discovers a route to node 4
    // and the data is relayed by 2 and 3.
    ParallelNetwork net;
    auto &a = net.addNode(cfgFor("n1"),
                          assembleSnap(apps::senderNodeProgram(
                              1, 4, {0xCAFE}, /*delay_ms=*/5)));
    auto &b =
        net.addNode(cfgFor("n2"), assembleSnap(apps::relayNodeProgram(2)));
    auto &c =
        net.addNode(cfgFor("n3"), assembleSnap(apps::relayNodeProgram(3)));
    auto &d =
        net.addNode(cfgFor("n4"), assembleSnap(apps::sinkNodeProgram(4)));
    net.setLineTopology();
    net.start();
    net.runFor(2 * sim::kSecond);

    EXPECT_EQ(d.core().debugOut(),
              (std::vector<std::uint16_t>{0xCAFE}));
    EXPECT_EQ(d.dmem().peek(kStDeliv), 1u);
    // Both relays forwarded the data frame (and the RREP before it).
    EXPECT_GE(b.dmem().peek(kStFwd), 1u);
    EXPECT_GE(c.dmem().peek(kStFwd), 1u);
    EXPECT_EQ(a.dmem().peek(kStRtOk), 1u);
    // Routing tables: node 1 reaches 4 via 2; node 3 reaches 4 directly.
    EXPECT_EQ(a.dmem().peek(apps::layout::kRtBase + 4), 2u);
    EXPECT_EQ(c.dmem().peek(apps::layout::kRtBase + 4), 4u);
}

TEST(AppsAodvTest, NodesSleepBetweenNetworkEvents)
{
    ParallelNetwork net;
    net.addNode(cfgFor("n1"), assembleSnap(apps::senderNodeProgram(
                                  1, 3, {7}, /*delay_ms=*/5)));
    auto &relay =
        net.addNode(cfgFor("n2"), assembleSnap(apps::relayNodeProgram(2)));
    net.addNode(cfgFor("n3"), assembleSnap(apps::sinkNodeProgram(3)));
    net.setLineTopology();
    net.start();
    net.runFor(2 * sim::kSecond);
    // The relay was active for far less than 1% of the run: the whole
    // point of the event-driven core (section 4.7).
    EXPECT_LT(relay.core().activeTimeNow(), 20 * sim::kMillisecond);
    EXPECT_TRUE(relay.core().asleep());
}

TEST(AppsTableTest, TemperatureAppAveragesAndLogs)
{
    ParallelNetwork net;
    auto &n = net.addNode(cfgFor("t", /*radio=*/false),
                          assembleSnap(apps::temperatureProgram(1000)));
    sensor::ScriptedSensor sens({100, 200, 300, 400});
    n.attachSensor(0, sens);
    net.start();
    net.runFor(4 * sim::kMillisecond + 800 * sim::kMicrosecond);
    // avg' = avg + (x - avg) >> 2 starting from 0:
    // 25, 68, 126, 194 (integer arithmetic with srai).
    const auto &out = n.core().debugOut();
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 25);
    EXPECT_EQ(out[1], 68);
    EXPECT_EQ(out[2], 126);
    EXPECT_EQ(out[3], 194);
    // The log ring in DMEM holds the same values.
    EXPECT_EQ(n.dmem().peek(apps::layout::kLogBase + 0), 25u);
    EXPECT_EQ(n.dmem().peek(apps::layout::kLogBase + 3), 194u);
}

TEST(AppsTableTest, ThresholdAppLogsLargerField)
{
    ParallelNetwork net;
    auto &snd = net.addNode(cfgFor("a"),
                            assembleSnap(apps::senderNodeProgram(
                                1, 2, {123, 456}, /*delay_ms=*/5)));
    auto &thr = net.addNode(cfgFor("b"),
                            assembleSnap(apps::thresholdNodeProgram(2)));
    (void)snd;
    net.start();
    net.runFor(600 * sim::kMillisecond);
    EXPECT_EQ(thr.core().debugOut(),
              (std::vector<std::uint16_t>{456}));
    EXPECT_EQ(thr.dmem().peek(apps::layout::kLogBase), 456u);
}

TEST(AppsTableTest, BlinkTogglesLed)
{
    ParallelNetwork net;
    auto &n = net.addNode(cfgFor("blink", /*radio=*/false),
                          assembleSnap(apps::blinkProgram(1000)));
    net.start();
    net.runFor(5 * sim::kMillisecond + 500 * sim::kMicrosecond);
    EXPECT_EQ(n.core().debugOut(),
              (std::vector<std::uint16_t>{1, 0, 1, 0, 1}));
    // One handler per blink; the core sleeps in between.
    EXPECT_EQ(n.core().stats().handlers, 5u);
    EXPECT_TRUE(n.core().asleep());
}

TEST(AppsTableTest, SenseDisplaysAverageHighBits)
{
    ParallelNetwork net;
    auto &n = net.addNode(cfgFor("sense", /*radio=*/false),
                          assembleSnap(apps::senseProgram(1000)));
    sensor::ScriptedSensor sens({1000, 1000, 1000, 1000, 1000, 1000,
                                 1000, 1000, 1000, 1000});
    n.attachSensor(0, sens);
    net.start();
    net.runFor(10 * sim::kMillisecond + 800 * sim::kMicrosecond);
    const auto &out = n.core().debugOut();
    ASSERT_GE(out.size(), 8u);
    // The running average converges toward 1000 -> top bits 0b111.
    EXPECT_EQ(out.back(), 7u);
    EXPECT_LT(out.front(), 7u); // started at 0
}

TEST(AppsStackTest, RadioStackMatchesHostCodecs)
{
    const std::vector<std::uint8_t> msg = {0x12, 0xA5, 0xFF, 0x00, 0x7E};
    ParallelNetwork net;
    auto &tx = net.addNode(cfgFor("tx"),
                           assembleSnap(apps::radioStackProgram(msg)));
    net.enableAirTrace();
    net.start();
    net.runFor(50 * sim::kMillisecond);

    // Expected: one SEC-DED codeword per byte, then the CRC-16.
    ASSERT_EQ(net.trace().size(), msg.size() + 1);
    for (std::size_t i = 0; i < msg.size(); ++i) {
        EXPECT_EQ(net.trace()[i].word, net::secdedEncode(msg[i]))
            << "byte " << i;
        auto dec = net::secdedDecode(net.trace()[i].word);
        EXPECT_EQ(dec.status, net::SecdedStatus::Ok);
        EXPECT_EQ(dec.data, msg[i]);
    }
    EXPECT_EQ(net.trace().back().word, net::crc16(msg));
    // The guest reported the same CRC on its debug port.
    ASSERT_EQ(tx.core().debugOut().size(), 1u);
    EXPECT_EQ(tx.core().debugOut()[0], net::crc16(msg));
}

} // namespace
