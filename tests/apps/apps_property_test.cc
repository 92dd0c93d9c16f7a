/**
 * @file
 * Cross-platform property tests for the application suite: for random
 * messages, the SNAP radio-stack port, the AVR/TinyOS port and the
 * host reference codecs must all produce identical bits; plus larger
 * multi-hop topologies and frame fuzzing against the MAC receiver.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "baseline/avr_backend.hh"
#include "baseline/avr_core.hh"
#include "baseline/tinyos.hh"
#include "net/crc.hh"
#include "net/parallel_network.hh"
#include "net/secded.hh"
#include "sim/rng.hh"

namespace {

using namespace snaple;
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

class StackEquivalence : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(StackEquivalence, SnapAvrAndHostAgreeOnRandomMessages)
{
    sim::Rng rng(GetParam() * 31337);
    std::vector<std::uint8_t> msg(3 + rng.uniformInt(0, 5));
    for (auto &b : msg)
        b = static_cast<std::uint8_t>(rng.next());

    // SNAP: words on the air.
    ParallelNetwork net;
    auto &tx = net.addNode(cfgFor("tx"),
                           assembleSnap(apps::radioStackProgram(msg)));
    net.enableAirTrace();
    net.start();
    net.runFor(100 * sim::kMillisecond);
    ASSERT_EQ(net.trace().size(), msg.size() + 1);

    // AVR: bytes through the SPI.
    sim::Kernel k;
    baseline::AvrMcu::Config mcfg;
    mcfg.stopOnHalt = false;
    baseline::AvrMcu mcu(
        k, mcfg,
        baseline::assembleAvr(baseline::avrRadioStackProgram(msg)));
    mcu.start();
    k.run(k.now() + 10 * sim::kSecond);
    ASSERT_TRUE(mcu.halted());
    const auto &spi = mcu.spiOut();
    ASSERT_EQ(spi.size(), 2 * msg.size() + 2);

    for (std::size_t i = 0; i < msg.size(); ++i) {
        std::uint16_t host_cw = net::secdedEncode(msg[i]);
        EXPECT_EQ(net.trace()[i].word, host_cw) << "snap byte " << i;
        std::uint16_t avr_cw = static_cast<std::uint16_t>(
            spi[2 * i] | (spi[2 * i + 1] << 8));
        EXPECT_EQ(avr_cw, host_cw) << "avr byte " << i;
    }
    std::uint16_t host_crc = net::crc16(msg);
    EXPECT_EQ(net.trace().back().word, host_crc);
    std::uint16_t avr_crc = static_cast<std::uint16_t>(
        spi[spi.size() - 2] | (spi.back() << 8));
    EXPECT_EQ(avr_crc, host_crc);
    EXPECT_EQ(tx.core().debugOut().at(0), host_crc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackEquivalence,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{9}));

TEST(AppsScaleTest, FiveHopLineDelivery)
{
    ParallelNetwork net;
    auto &a = net.addNode(cfgFor("n1"),
                          assembleSnap(apps::senderNodeProgram(
                              1, 6, {0xBEEF}, /*delay_ms=*/5)));
    for (unsigned addr = 2; addr <= 5; ++addr)
        net.addNode(cfgFor("n" + std::to_string(addr)),
                    assembleSnap(apps::relayNodeProgram(addr)));
    auto &sink =
        net.addNode(cfgFor("n6"), assembleSnap(apps::sinkNodeProgram(6)));
    net.setLineTopology();
    net.start();
    net.runFor(5 * sim::kSecond);
    EXPECT_EQ(sink.core().debugOut(),
              (std::vector<std::uint16_t>{0xBEEF}));
    EXPECT_EQ(a.dmem().peek(apps::layout::kStRtOk), 1u);
    // Route at the origin goes through its only neighbor.
    EXPECT_EQ(a.dmem().peek(apps::layout::kRtBase + 6), 2u);
}

// Fuzz the MAC receiver: random word streams must never deliver a
// packet (the checksum catches them) and never wedge or crash the
// node — it must still accept a well-formed frame afterwards.
class MacFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MacFuzz, RandomNoiseNeverDeliversAndNeverWedges)
{
    sim::Rng rng(GetParam() * 2654435761ull);
    ParallelNetwork net;
    auto &sink =
        net.addNode(cfgFor("s"), assembleSnap(apps::sinkNodeProgram(2)));
    net.start();
    net.runFor(5 * sim::kMillisecond);

    // Pace the noise at the real air rate (one word per ~833 us); a
    // physical receiver can never see words faster than that.
    for (int burst = 0; burst < 4; ++burst) {
        int len = 1 + static_cast<int>(rng.uniformInt(0, 5));
        for (int i = 0; i < len; ++i) {
            sink.transceiver()->rxWords().tryPush(rng.uniform16());
            net.runFor(sim::kMillisecond);
        }
        net.runFor(100 * sim::kMillisecond);
    }
    std::uint64_t delivered = sink.dmem().peek(apps::layout::kStDeliv);
    // Random 16-bit checksums collide with probability 2^-16 per
    // frame; with a handful of frames, deliveries are (almost
    // certainly) zero. The invariant that matters: the node is alive.
    EXPECT_LE(delivered, 1u);

    // A valid frame still gets through after the noise settles: the
    // receive timeout (mac_on_rxto) resynchronizes the state machine
    // even when the noise ended mid-frame.
    net.runFor(200 * sim::kMillisecond);
    std::uint64_t before = sink.dmem().peek(apps::layout::kStDeliv);
    for (std::uint16_t w :
         apps::buildFrame(apps::frame::kData, 1, 1, 2, 2, {0x0abc})) {
        sink.transceiver()->rxWords().tryPush(w);
        net.runFor(sim::kMillisecond);
    }
    net.runFor(200 * sim::kMillisecond);
    EXPECT_EQ(sink.dmem().peek(apps::layout::kStDeliv), before + 1);
    EXPECT_EQ(sink.core().debugOut().back(), 0x0abc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MacFuzz,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{7}));

} // namespace
