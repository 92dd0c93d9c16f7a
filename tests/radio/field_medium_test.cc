/**
 * @file
 * Spatial field-mode channel tests (radio/field_medium.hh math on
 * AirExchange::setField): path-loss/RSSI arithmetic, carrier sense by
 * position, capture-threshold collision resolution (including
 * exactly-at-threshold and three-way overlap), and the per-receiver
 * channel accounting (rx_in_range == delivered + collisions + drops).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "host_radios.hh"
#include "radio/field_medium.hh"

namespace {

using namespace snaple;
using coproc::RadioMode;
using radio::FieldConfig;
using radio::Transceiver;
using test::HostRadios;
using test::popWord;

/** Host radios in field mode; place each with at(x, y). */
struct FieldRig : HostRadios
{
    FieldConfig cfg;

    explicit FieldRig(const FieldConfig &c = {}) : cfg(c)
    {
        net.setField(c);
    }
};

TEST(FieldMediumTest, RssiFollowsLogDistancePathLoss)
{
    FieldRig r;
    r.at(0, 0);
    r.at(10, 0);
    // PL(10m) = 40 + 10*2.7*log10(10) = 67 dB; RSSI = 0 - 67.
    EXPECT_NEAR(r.net.rssiDbm(0, 1), -67.0, 1e-9);
    // Symmetric, and distance-only (3-4-5 triangle = 5 m).
    r.at(13, 4);
    EXPECT_NEAR(r.net.rssiDbm(1, 2), r.net.rssiDbm(2, 1), 1e-12);
    EXPECT_NEAR(r.net.rssiDbm(1, 2), -(40.0 + 27.0 * std::log10(5.0)),
                1e-9);
    // Inside the reference distance the loss clamps to pl0.
    r.at(10.5, 0);
    EXPECT_NEAR(r.net.rssiDbm(1, 3), -40.0, 1e-9);
}

TEST(FieldMediumTest, RssiWordUsesHalfDbStepsAboveMinus120)
{
    EXPECT_EQ(radio::field::rssiToWord(-85.0), 70u);
    EXPECT_EQ(radio::field::rssiToWord(-120.0), 0u);
    EXPECT_EQ(radio::field::rssiToWord(-140.0), 0u); // clamped
    EXPECT_EQ(radio::field::rssiToWord(0.0), 240u);
}

TEST(FieldMediumTest, DeliveryStopsAtSensitivityRange)
{
    FieldRig r;
    const double range =
        radio::field::rangeM(r.cfg, r.cfg.sensitivityDbm);
    r.at(0, 0);
    Transceiver &nearRx = r.at(range * 0.99, 0);
    Transceiver &farRx = r.at(range * 1.01, 0);
    r.start();
    nearRx.setMode(RadioMode::Rx);
    farRx.setMode(RadioMode::Rx);
    r.transmit(0, {0xAB});
    r.net.runFor(3 * sim::kMillisecond);
    EXPECT_EQ(nearRx.rxWords().size(), 1u);
    EXPECT_EQ(farRx.rxWords().size(), 0u);
    // The out-of-range receiver is not an opportunity: distance is
    // topology, not a fault.
    EXPECT_EQ(r.net.airRxInRange(), 1u);
    EXPECT_EQ(r.net.stats().wordsDelivered, 1u);
}

TEST(FieldMediumTest, ReceiverReadsRssiOfAcceptedWord)
{
    FieldRig r;
    r.at(0, 0);
    Transceiver &b = r.at(10, 0);
    r.start();
    b.setMode(RadioMode::Rx);
    r.transmit(0, {0x77});
    r.net.runFor(3 * sim::kMillisecond);
    ASSERT_EQ(b.rxWords().size(), 1u);
    // RSSI -67 dBm -> (-67 + 120) * 2 = 106.
    EXPECT_EQ(b.lastRssi(), 106u);
}

TEST(FieldMediumTest, CarrierSenseIsPositional)
{
    // Every runFor() ends on a barrier, so by the lookahead rule a
    // word on the air at 100 us is visible there — but only to
    // receivers within sensing range.
    FieldRig r;
    const double range =
        radio::field::rangeM(r.cfg, r.cfg.sensitivityDbm);
    Transceiver &a = r.at(0, 0);
    Transceiver &nearRx = r.at(range * 0.5, 0);
    Transceiver &farRx = r.at(range * 1.5, 0);
    r.start();
    r.transmit(0, {0x1});
    r.net.runFor(100 * sim::kMicrosecond);
    EXPECT_TRUE(nearRx.channelBusy());
    EXPECT_FALSE(farRx.channelBusy()); // inaudibly far away
    EXPECT_TRUE(a.channelBusy());      // own word counts
    r.net.runFor(2 * sim::kMillisecond);
    EXPECT_FALSE(nearRx.channelBusy());
}

TEST(FieldMediumTest, StrongFrameCapturesOverlappingWeakOne)
{
    // Receiver at 1 m from A and ~30 m from B: A's word clears B's
    // interference by far more than the 10 dB margin, so A survives
    // the overlap at this receiver while B is garbled.
    FieldRig r;
    r.at(0, 0);
    r.at(31, 0);
    Transceiver &rx = r.at(1, 0);
    r.start();
    rx.setMode(RadioMode::Rx);
    r.transmit(0, {0xAAAA});
    r.transmit(1, {0xBBBB});
    r.net.runFor(5 * sim::kMillisecond);
    ASSERT_EQ(rx.rxWords().size(), 1u);
    const std::optional<std::uint16_t> got = popWord(rx.rxWords());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 0xAAAA);
    // Four opportunities: each word is in range of both the other
    // transmitter and rx. Only A-at-rx captures; the transmitters
    // swamp the incoming word with their own signal.
    EXPECT_EQ(r.net.airRxInRange(), 4u);
    EXPECT_EQ(r.net.stats().wordsDelivered, 1u);
    EXPECT_EQ(r.net.stats().collisions, 3u);
}

TEST(FieldMediumTest, CaptureExactlyAtThresholdDecodes)
{
    // ">=" at the capture threshold decodes. Exact FP equality by
    // symmetry: capture margin 0 dB, noise pushed far below one ulp
    // of the signal power, transmitters mirrored about the receiver
    // so signal and interferer powers are computed from bit-identical
    // distances. Then P_sig == capture * (P_noise + P_interf) exactly
    // (the noise term vanishes in the rounding), and both words
    // decode — a strict ">" would garble both.
    FieldConfig cfg;
    cfg.captureDb = 0.0;
    cfg.noiseDbm = -1000.0;     // ~1e-100 mW: below one ulp of -67 dBm
    cfg.sensitivityDbm = -85.0; // unchanged
    // The noise range is ~3.6e35 m; a cell that spans it keeps the
    // interference reach at one cell (finalizeField rejects reaches
    // the int32 cell grid cannot index).
    cfg.cellM = 1e36;
    FieldRig r(cfg);
    r.at(-10, 0);
    r.at(10, 0);
    Transceiver &rx = r.at(0, 0);
    r.start();
    rx.setMode(RadioMode::Rx);
    r.transmit(0, {0xCAFE});
    r.transmit(1, {0xD00D});
    r.net.runFor(5 * sim::kMillisecond);
    EXPECT_EQ(rx.rxWords().size(), 2u);
}

TEST(FieldMediumTest, ThreeWayOverlapSumsInterference)
{
    // Two interferers, each individually ~capture-clearable, must be
    // *summed*: A clears either alone but not both together.
    FieldConfig cfg;
    cfg.captureDb = 3.0;
    FieldRig r(cfg);
    r.at(0, 0); // A
    // rx at 2 m from A: sig = -(40 + 27*log10(2)) ~ -48.1 dBm.
    Transceiver &rx = r.at(2, 0);
    // Each interferer at ~8 m from rx: ~-64.4 dBm received. One alone:
    // margin ~16 dB > 3 dB -> captured. Both: interference doubles
    // (+3 dB), plus the margin, leaves ~10 dB -> still captured. So
    // move them closer: at 4 m, each ~-56.3 dBm; one alone -> margin
    // ~8.2 dB > 3 (captures); two -> sum -53.3 dBm, margin ~5.2 dB
    // still > 3. Closer still: at 3 m each ~-52.9; two sum to -49.9,
    // margin 1.8 dB < 3 -> garbled. The pair (one at 3 m captures,
    // two at 3 m garble) pins the summation.
    r.at(2 + 3, 0); // B
    r.at(2 - 3, 0); // C
    r.start();
    rx.setMode(RadioMode::Rx);

    // Round 1: A vs B only — captured.
    r.transmit(0, {0x0A0A});
    r.transmit(2, {0x0B0B});
    r.net.runFor(5 * sim::kMillisecond);
    const std::optional<std::uint16_t> got = popWord(rx.rxWords());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 0x0A0A);

    // Round 2: A vs B and C — the summed interference garbles A.
    r.transmit(0, {0x1A1A});
    r.transmit(2, {0x1B1B});
    r.transmit(3, {0x1C1C});
    r.net.runFor(5 * sim::kMillisecond);
    EXPECT_EQ(rx.rxWords().size(), 0u);
}

TEST(FieldMediumTest, SubNoiseSignalsNeitherDeliverNorInterfere)
{
    FieldRig r;
    const double noiseRange =
        radio::field::rangeM(r.cfg, r.cfg.noiseDbm);
    r.at(0, 0);
    Transceiver &rx = r.at(1, 0);
    // An interferer so far out its signal at rx is below the noise
    // floor: it must not tip the capture check.
    r.at(noiseRange * 1.5, 0);
    r.start();
    rx.setMode(RadioMode::Rx);
    r.transmit(0, {0x5555});
    r.transmit(2, {0x6666});
    r.net.runFor(5 * sim::kMillisecond);
    const std::optional<std::uint16_t> got = popWord(rx.rxWords());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 0x5555);
}

TEST(FieldMediumTest, AccountingReconcilesPerOpportunity)
{
    // rx_in_range == delivered + collisions + drops_mode + drops_fifo:
    // mix a capture loss (overlap), a wrong-mode receiver and a clean
    // delivery, and check the opportunity arithmetic closes.
    FieldRig r;
    r.at(0, 0);                       // A
    r.at(20, 0);                      // B
    Transceiver &rxMid = r.at(10, 0); // overlap garbles here
    r.at(1, 0);                       // in range, wrong mode (Idle)
    Transceiver &rxGood = r.at(2, 0); // accepts A's word
    r.start();
    rxMid.setMode(RadioMode::Rx);
    rxGood.setMode(RadioMode::Rx);
    r.transmit(0, {0xA1});
    r.transmit(1, {0xB2});
    r.net.runFor(5 * sim::kMillisecond);

    const radio::Medium::Stats s = r.net.stats();
    EXPECT_EQ(r.net.airRxInRange(),
              s.wordsDelivered + s.collisions + s.dropsMode +
                  s.dropsFifo);
    EXPECT_EQ(r.net.airPendingDeliveries(), 0u);
    EXPECT_GT(s.collisions, 0u);  // rxMid garbled at least once
    EXPECT_GT(s.dropsMode, 0u);   // the Idle receiver missed words
    EXPECT_GT(s.wordsDelivered, 0u);
}

TEST(FieldMediumTest, DuplicateAttachKeepsOnePosition)
{
    FieldRig r;
    r.at(0, 0);
    Transceiver &b = r.at(10, 0);
    r.net.shardMedium(1).attach(&b); // idempotent: one receiver, one spot
    r.start();
    b.setMode(RadioMode::Rx);
    r.transmit(0, {0x42});
    r.net.runFor(3 * sim::kMillisecond);
    EXPECT_EQ(b.rxWords().size(), 1u);
    EXPECT_NEAR(r.net.rssiDbm(0, 1), -67.0, 1e-9);
}

} // namespace
