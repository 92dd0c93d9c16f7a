/**
 * @file
 * Full-node integration tests: guest SNAP programs driving the radio
 * and sensors through the message coprocessor.
 */

#include <gtest/gtest.h>

#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "sensor/sensor.hh"

namespace {

using namespace snaple;
using assembler::assembleSnap;
using net::ParallelNetwork;
using node::NodeConfig;

const char *kTxProgram = R"(
    .equ CMD_TX, 0x8002
    .equ EV_TXRDY, 6
boot:
    li r1, EV_TXRDY
    la r2, on_txrdy
    setaddr r1, r2
    li r4, 3           ; total words to send
    li r5, 0x1000      ; first payload word
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

const char *kRxProgram = R"(
    .equ CMD_RX, 0x8001
    .equ EV_RX, 3
boot:
    li r1, EV_RX
    la r2, on_rx
    setaddr r1, r2
    li r15, CMD_RX
    done
on_rx:
    mov r1, r15
    dbgout r1
    done
)";

TEST(NodeTest, WordByWordRadioTransferBetweenTwoNodes)
{
    ParallelNetwork net;
    NodeConfig txc;
    txc.name = "tx";
    txc.core.stopOnHalt = false;
    NodeConfig rxc;
    rxc.name = "rx";
    rxc.core.stopOnHalt = false;
    auto &tx = net.addNode(txc, assembleSnap(kTxProgram));
    auto &rx = net.addNode(rxc, assembleSnap(kRxProgram));
    net.enableAirTrace();
    net.start();
    net.runFor(10 * sim::kMillisecond);

    EXPECT_EQ(rx.core().debugOut(),
              (std::vector<std::uint16_t>{0x1000, 0x1001, 0x1002}));
    EXPECT_EQ(tx.transceiver()->stats().txWords, 3u);
    EXPECT_EQ(rx.transceiver()->stats().rxWords, 3u);
    EXPECT_EQ(net.stats().collisions, 0u);
    // Both cores end up asleep, not halted.
    EXPECT_TRUE(tx.core().asleep());
    EXPECT_TRUE(rx.core().asleep());
    // The air trace recorded all three words.
    ASSERT_EQ(net.trace().size(), 3u);
    EXPECT_EQ(net.trace()[0].from, "tx");
    EXPECT_EQ(net.trace()[0].word, 0x1000);
}

TEST(NodeTest, TxRdyEventsPaceTheTransmitter)
{
    ParallelNetwork net;
    NodeConfig txc;
    txc.name = "tx";
    txc.core.stopOnHalt = false;
    auto &tx = net.addNode(txc, assembleSnap(kTxProgram));
    net.start();
    net.runFor(10 * sim::kMillisecond);
    // Three words at ~833 us each: the handler ran once per TxRdy.
    EXPECT_EQ(tx.core().stats().handlers, 3u);
    // The core slept between words instead of spinning.
    EXPECT_GE(tx.core().stats().sleeps, 3u);
    EXPECT_LT(tx.core().activeTimeNow(), 100 * sim::kMicrosecond);
}

TEST(NodeTest, SensorQueryRoundTrip)
{
    ParallelNetwork net;
    NodeConfig cfg;
    cfg.name = "s";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(cfg, assembleSnap(R"(
        .equ CMD_QUERY, 0x9000
        .equ EV_SDATA, 5
    boot:
        li r1, EV_SDATA
        la r2, on_data
        setaddr r1, r2
        li r15, CMD_QUERY      ; query sensor 0
        done
    on_data:
        mov r1, r15
        dbgout r1
        done
    )"));
    sensor::ScriptedSensor sens({777});
    n.attachSensor(0, sens);
    net.start();
    net.runFor(5 * sim::kMillisecond);
    EXPECT_EQ(n.core().debugOut(),
              (std::vector<std::uint16_t>{777}));
    EXPECT_EQ(n.msgCoproc().stats().queries, 1u);
}

TEST(NodeTest, SensorInterruptRaisesEvent)
{
    ParallelNetwork net;
    NodeConfig cfg;
    cfg.name = "s";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(cfg, assembleSnap(R"(
        .equ EV_IRQ, 4
    boot:
        li r1, EV_IRQ
        la r2, on_irq
        setaddr r1, r2
        done
    on_irq:
        li r3, 0xF1
        dbgout r3
        done
    )"));
    net.start();
    net.runFor(sim::kMillisecond);
    EXPECT_TRUE(n.core().asleep());
    n.msgCoproc().raiseSensorInterrupt();
    net.runFor(sim::kMillisecond);
    EXPECT_EQ(n.core().debugOut(),
              (std::vector<std::uint16_t>{0xF1}));
    EXPECT_EQ(n.msgCoproc().stats().interrupts, 1u);
}

TEST(NodeTest, PeriodicSensingViaTimerCoprocessor)
{
    // The classic data-gathering loop: timer event -> query sensor ->
    // data event -> log reading -> re-arm timer.
    ParallelNetwork net;
    NodeConfig cfg;
    cfg.name = "s";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(cfg, assembleSnap(R"(
        .equ CMD_QUERY, 0x9000
        .equ EV_T0, 0
        .equ EV_SDATA, 5
        .equ PERIOD, 1000          ; 1 ms in timer ticks
    boot:
        li r1, EV_T0
        la r2, on_timer
        setaddr r1, r2
        li r1, EV_SDATA
        la r2, on_data
        setaddr r1, r2
        li r1, 0
        li r2, PERIOD
        schedlo r1, r2
        done
    on_timer:
        li r15, CMD_QUERY
        done
    on_data:
        mov r3, r15
        dbgout r3
        li r1, 0
        li r2, PERIOD
        schedlo r1, r2
        done
    )"));
    sensor::ScriptedSensor sens({10, 20, 30, 40, 50});
    n.attachSensor(0, sens);
    net.start();
    net.runFor(4 * sim::kMillisecond + 500 * sim::kMicrosecond);
    EXPECT_EQ(n.core().debugOut(),
              (std::vector<std::uint16_t>{10, 20, 30, 40}));
    EXPECT_EQ(n.timer().stats().expired, 4u);
}

TEST(NodeTest, RadioCommandWithoutRadioIsFatal)
{
    ParallelNetwork net;
    NodeConfig cfg;
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    net.addNode(cfg, assembleSnap(R"(
        li r15, 0x8001
        done
    )"));
    net.start();
    EXPECT_THROW(net.runFor(sim::kMillisecond), sim::FatalError);
}

TEST(NodeTest, ProcessorEnergyDwarfedByRadioEnergy)
{
    // The motivation in section 1: with conventional radios,
    // communication dominates — which is exactly why the paper targets
    // self-powered links and then optimizes computation.
    ParallelNetwork net;
    NodeConfig txc;
    txc.name = "tx";
    txc.core.stopOnHalt = false;
    auto &tx = net.addNode(txc, assembleSnap(kTxProgram));
    net.start();
    net.runFor(10 * sim::kMillisecond);
    const energy::EnergyLedger l = tx.ctx().energy();
    EXPECT_GT(l.pj(energy::Cat::Radio), 100.0 * l.processorPj());
}

} // namespace
