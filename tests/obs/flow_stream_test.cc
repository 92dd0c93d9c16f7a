/**
 * @file
 * Whole-stack observability tests: the flow-span JSONL stream is
 * byte-identical for any --jobs over the shipped golden scenarios,
 * causal linking crosses real radio hops, the explicit-flow guest
 * command (0x8005) round-trips through the message coprocessor, and
 * the energest duty ledger matches hand-computed radio accounting.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "obs/flow.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace {

using namespace snaple;
using assembler::assembleSnap;

std::string
runFlows(const scenario::Scenario &sc, unsigned jobs)
{
    std::ostringstream flows;
    scenario::RunOptions opt;
    opt.jobs = jobs;
    opt.flowsOut = &flows;
    scenario::runScenario(sc, opt);
    return flows.str();
}

class SpanStreamGolden : public ::testing::TestWithParam<const char *>
{};

TEST_P(SpanStreamGolden, StreamIsJobsInvariant)
{
    const std::string root = SNAPLE_SOURCE_DIR;
    const scenario::Scenario sc = scenario::loadScenario(
        root + "/examples/scenarios/" + GetParam() + ".scn");
    ASSERT_GT(sc.flowWindowMs, 0) << "scenario lost its flow window";

    const std::string j1 = runFlows(sc, 1);
    EXPECT_FALSE(j1.empty());
    // Causal linking crossed at least one radio hop.
    EXPECT_NE(j1.find("\"hop\":1,"), std::string::npos);
    EXPECT_EQ(j1, runFlows(sc, 2));
    EXPECT_EQ(j1, runFlows(sc, 4));
}

INSTANTIATE_TEST_SUITE_P(Shipped, SpanStreamGolden,
                         ::testing::Values("trickle", "rssi_cluster"));

TEST(FlowStreamTest, StreamTapDoesNotPerturbTheRun)
{
    const std::string root = SNAPLE_SOURCE_DIR;
    const scenario::Scenario sc = scenario::loadScenario(
        root + "/examples/scenarios/trickle.scn");
    std::ostringstream flows;
    scenario::RunOptions tapped;
    tapped.jobs = 2;
    tapped.flowsOut = &flows;
    scenario::RunOptions bare;
    bare.jobs = 2;
    EXPECT_EQ(scenario::runScenario(sc, tapped).rows(),
              scenario::runScenario(sc, bare).rows());
}

/** Guest program: toggle the explicit flow twice, logging both
 *  replies, then beacon two words inside a second explicit flow. */
const char *kExplicitFlow = R"(
    .equ CMD_FLOW, 0x8005
    .equ CMD_TX, 0x8002
    .equ EV_TXRDY, 6
boot:
    li r15, CMD_FLOW
    mov r1, r15        ; open reply: flow id low bits
    dbgout r1
    li r15, CMD_FLOW
    mov r1, r15        ; close reply: 0xffff
    dbgout r1
    li r1, EV_TXRDY
    la r2, on_txrdy
    setaddr r1, r2
    li r15, CMD_FLOW   ; open again (id 1) and transmit inside it
    mov r1, r15
    li r4, 2
    li r5, 0x2000
    li r15, CMD_TX
    mov r15, r5
    dec r4
    done
on_txrdy:
    beqz r4, fin
    inc r5
    li r15, CMD_TX
    mov r15, r5
    dec r4
    done
fin:
    done
)";

TEST(FlowStreamTest, ExplicitFlowCommandRoundTripsAndPinsSpans)
{
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "a";
    cfg.nodeId = 4;
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(cfg, assembleSnap(kExplicitFlow));
    n.flowTracker().setWindow(100 * sim::kMillisecond);
    n.flowTracker().setRecording(true);
    net.start();
    net.runFor(10 * sim::kMillisecond);

    // Open replies with the new flow id's low bits, close with 0xffff.
    EXPECT_EQ(n.core().debugOut(),
              (std::vector<std::uint16_t>{0, 0xffff}));

    // Both transmitted words rode explicit flow 1 at hop 0.
    std::vector<obs::SpanRecord> spans;
    n.flowTracker().drainSpans(spans);
    ASSERT_EQ(spans.size(), 2u);
    for (const obs::SpanRecord &s : spans) {
        EXPECT_EQ(s.origin, 4u);
        EXPECT_EQ(s.id, 1u);
        EXPECT_EQ(s.hop, 0u);
        EXPECT_EQ(s.parent, obs::kNoNode);
    }
    EXPECT_EQ(spans[0].word, 0x2000u);
    EXPECT_EQ(spans[1].word, 0x2001u);
}

const char *kBeacon = R"(
    .equ CMD_TX, 0x8002
    .equ EV_TXRDY, 6
boot:
    li r1, EV_TXRDY
    la r2, on_txrdy
    setaddr r1, r2
    li r4, 3
    li r5, 0x1000
    li r15, CMD_TX
    mov r15, r5
    dec r4
    done
on_txrdy:
    beqz r4, fin
    inc r5
    li r15, CMD_TX
    mov r15, r5
    dec r4
    done
fin:
    done
)";

const char *kForward = R"(
    .equ CMD_RX, 0x8001
    .equ CMD_TX, 0x8002
    .equ EV_RX, 3
boot:
    li r1, EV_RX
    la r2, on_rx
    setaddr r1, r2
    li r15, CMD_RX
    done
on_rx:
    mov r3, r15
    li r15, CMD_TX
    mov r15, r3
    done
)";

TEST(FlowStreamTest, ForwardedWordsLinkAcrossTheAir)
{
    net::ParallelNetwork net;
    node::NodeConfig a;
    a.name = "a";
    a.nodeId = 0;
    a.core.stopOnHalt = false;
    node::NodeConfig b;
    b.name = "b";
    b.nodeId = 1;
    b.core.stopOnHalt = false;
    auto &src = net.addNode(a, assembleSnap(kBeacon));
    auto &fwd = net.addNode(b, assembleSnap(kForward));
    src.flowTracker().setWindow(100 * sim::kMillisecond);
    src.flowTracker().setRecording(true);
    fwd.flowTracker().setWindow(100 * sim::kMillisecond);
    fwd.flowTracker().setRecording(true);
    net.start();
    net.runFor(20 * sim::kMillisecond);

    std::vector<obs::SpanRecord> spans;
    src.flowTracker().drainSpans(spans);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].hop, 0u); // src originates each beacon...
    std::vector<obs::SpanRecord> fspans;
    fwd.flowTracker().drainSpans(fspans);
    ASSERT_GE(fspans.size(), 1u);
    // ...and the forwarder's retransmissions link back to it.
    for (const obs::SpanRecord &s : fspans) {
        EXPECT_EQ(s.origin, 0u);
        EXPECT_EQ(s.hop, 1u);
        EXPECT_EQ(s.parent, 0u);
        EXPECT_EQ(s.node, 1u);
        EXPECT_GT(s.txTick, s.rxTick);
    }
}

TEST(FlowStreamTest, EnergestMatchesHandComputedRadioAccounting)
{
    net::ParallelNetwork net;
    node::NodeConfig a;
    a.name = "tx";
    a.nodeId = 0;
    a.core.stopOnHalt = false;
    node::NodeConfig b;
    b.name = "rx";
    b.nodeId = 1;
    b.core.stopOnHalt = false;
    auto &tx = net.addNode(a, assembleSnap(kBeacon));
    auto &rx = net.addNode(b, assembleSnap(kForward));
    net.start();
    const sim::Tick dur = 10 * sim::kMillisecond;
    net.runFor(dur);
    const sim::Tick now = net.now();
    const sim::Tick airtime = tx.transceiver()->wordAirtime();

    // Attributed tx energy is exactly words x per-word cost.
    const double perWord = radio::kTxPjPerWord;
    EXPECT_DOUBLE_EQ(tx.ctx().energest.pj(obs::Comp::RadioTx),
                     3.0 * perWord);

    // The tx radio entered Tx at the first word and stayed: its Tx
    // duty covers at least the three word airtimes, and the three
    // radio states partition the time since the mode first left Idle.
    const sim::Tick txT = tx.ctx().energest.ticks(obs::Comp::RadioTx, now);
    EXPECT_GE(txT, 3 * airtime);
    EXPECT_LE(txT, dur);

    // The forwarder listens whenever it is not retransmitting; its
    // three radio states never overlap and never exceed the run.
    const sim::Tick lis =
        rx.ctx().energest.ticks(obs::Comp::RadioListen, now);
    const sim::Tick rtx = rx.ctx().energest.ticks(obs::Comp::RadioTx, now);
    const sim::Tick off = rx.ctx().energest.ticks(obs::Comp::RadioOff, now);
    EXPECT_GT(lis, dur / 2);
    EXPECT_LE(lis + rtx + off, dur);
    // Words 2 and 3 land while it retransmits word 1, so it forwards
    // exactly that one word: Tx duty is a single airtime plus the
    // mode-switch slop, nowhere near a second word.
    EXPECT_GE(rtx, airtime);
    EXPECT_LT(rtx, 2 * airtime);
}

} // namespace
