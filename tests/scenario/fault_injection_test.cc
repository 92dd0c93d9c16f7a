/**
 * @file
 * Fault-injection consistency: when a node dies mid-flight or a link
 * flaps during a word's airtime, the air counters still reconcile
 * (sent == delivered + collisions + drops for a single receiver), no
 * flight slots leak, and a dead node's trace hash and energy ledger
 * freeze at the kill barrier.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "node/node.hh"
#include "sim/ticks.hh"

namespace {

using namespace snaple;

/** Beacon every ~1.2 ms; the word airtime is ~833 us, so flights are
 *  regularly still on the air at window barriers. */
const char *kBeacon = R"(
    .equ EV_T0, 0
    .equ EV_RX, 3
    .equ EV_TXRDY, 6
    .equ CMD_RX, 0x8001
    .equ CMD_TX, 0x8002
boot:
    li   r1, EV_T0
    la   r2, on_t0
    setaddr r1, r2
    li   r1, EV_RX
    la   r2, on_rx
    setaddr r1, r2
    li   r1, EV_TXRDY
    la   r2, on_txrdy
    setaddr r1, r2
    li   r15, CMD_RX
    li   r4, 0
    jmp  rearm
on_t0:
    addi r4, 1
    li   r15, CMD_TX
    mov  r15, r4
    done
on_txrdy:
    li   r15, CMD_RX
rearm:
    li   r1, 0
    li   r2, 1200
    schedlo r1, r2
    done
on_rx:
    mov  r3, r15
    done
)";

/** Pure listener: receive mode forever. */
const char *kListener = R"(
    .equ EV_RX, 3
    .equ CMD_RX, 0x8001
boot:
    li   r1, EV_RX
    la   r2, on_rx
    setaddr r1, r2
    li   r15, CMD_RX
    done
on_rx:
    mov  r3, r15
    done
)";

struct Rig
{
    net::ParallelNetwork net{1 * sim::kMicrosecond, /*jobs=*/2};

    explicit Rig(const char *txProg = kBeacon,
                 const char *rxProg = kListener)
    {
        const assembler::Program tx =
            assembler::assembleSnap(txProg, "tx.s");
        const assembler::Program rx =
            assembler::assembleSnap(rxProg, "rx.s");
        node::NodeConfig cfg;
        cfg.baseSeed = 11;
        cfg.name = "tx";
        net.addNode(cfg, tx);
        cfg.name = "rx";
        net.addNode(cfg, rx);
        net.enableTracing(false);
        net.start();
    }

    /** Advance whole windows until a flight is pending mid-air (the
     *  beacon cadence guarantees one within a few windows). */
    void
    runUntilMidFlight()
    {
        for (int i = 0; i < 64; ++i) {
            net.runFor(net.window());
            if (net.airPendingFlights() > 0)
                return;
        }
        FAIL() << "no mid-flight word within 64 windows";
    }

    /** sent == delivered + collisions + drops + still-pending offers,
     *  for one receiver (call with airPendingFlights() == 0). */
    void
    expectCountersReconcile()
    {
        const radio::Medium::Stats s = net.stats();
        EXPECT_EQ(s.wordsSent, s.wordsDelivered + s.collisions +
                                   s.dropsMode + s.dropsFifo +
                                   net.airDropsLink() +
                                   net.airDropsDead() +
                                   net.airPendingDeliveries());
    }
};

TEST(FaultInjection, TransmitterDeathMidFlightTruncatesTheWord)
{
    Rig rig;
    rig.runUntilMidFlight();
    const radio::Medium::Stats before = rig.net.stats();

    rig.net.killNode(0); // the only transmitter dies mid-word
    EXPECT_TRUE(rig.net.nodeDead(0));
    rig.net.runFor(20 * rig.net.window());

    // The truncated word resolved (as a collision — a transmitter
    // dying mid-word garbles it); nothing stays pending forever.
    EXPECT_EQ(rig.net.airPendingFlights(), 0u);
    const radio::Medium::Stats after = rig.net.stats();
    EXPECT_EQ(after.wordsSent, before.wordsSent); // dead men tell no tales
    EXPECT_GT(after.collisions, before.collisions);
    rig.expectCountersReconcile();
}

TEST(FaultInjection, DeadNodeFreezesTraceAndLedger)
{
    Rig rig;
    rig.runUntilMidFlight();
    rig.net.killNode(0);

    const auto energy = [&](std::size_t i) {
        return rig.net.node(i).ctx().energy().totalPj();
    };
    const std::uint64_t hash0 = rig.net.nodeTraceHash(0);
    const std::uint64_t hash1 = rig.net.nodeTraceHash(1);
    const double pj0 = energy(0);
    const double rxPj = energy(1);
    // Reading energy is pure: no trace event on either node.
    EXPECT_EQ(rig.net.nodeTraceHash(0), hash0);
    EXPECT_EQ(rig.net.nodeTraceHash(1), hash1);

    rig.net.runFor(20 * rig.net.window());

    // The dead node's kernel is frozen at the kill barrier, so both
    // its trace hash and its energy (leakage counts against its
    // frozen clock) stop moving.
    EXPECT_EQ(rig.net.nodeTraceHash(0), hash0);
    EXPECT_EQ(energy(0), pj0);
    // The survivor's clock keeps running: its idle-listening radio
    // and leakage keep spending real energy.
    EXPECT_GT(energy(1), rxPj);
}

TEST(FaultInjection, ReceiverDeathSuppressesDeliveriesCounted)
{
    Rig rig;
    rig.runUntilMidFlight();
    const std::uint64_t deadBefore = rig.net.airDropsDead();

    rig.net.killNode(1); // the only receiver dies mid-flight
    rig.net.runFor(20 * rig.net.window());

    // The transmitter keeps beaconing into the void; every resolved
    // clean flight is a counted dead-receiver drop, so the channel
    // arithmetic still closes.
    EXPECT_EQ(rig.net.airPendingFlights(), 0u);
    EXPECT_GT(rig.net.airDropsDead(), deadBefore);
    rig.expectCountersReconcile();
}

TEST(FaultInjection, LinkFlapDuringAWordDropsExactlyThatTraffic)
{
    Rig rig;
    rig.runUntilMidFlight();
    const radio::Medium::Stats atFlap = rig.net.stats();

    // Take the link down while the word is still on the air: delivery
    // resolves *after* the flap, so the word is dropped and counted.
    rig.net.setLinkUp(0, 1, false);
    rig.net.runFor(8 * rig.net.window());
    const std::uint64_t dropped = rig.net.airDropsLink();
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(rig.net.stats().wordsDelivered, atFlap.wordsDelivered);

    // Restore the link: deliveries resume, drops stop growing.
    rig.net.setLinkUp(0, 1, true);
    rig.net.runFor(8 * rig.net.window());
    EXPECT_GT(rig.net.stats().wordsDelivered, atFlap.wordsDelivered);
    EXPECT_EQ(rig.net.airDropsLink(), dropped);

    EXPECT_EQ(rig.net.airPendingFlights(), 0u);
    rig.expectCountersReconcile();
}

TEST(FaultInjection, FaultsAreJobsInvariant)
{
    // The same kill applied at the same barrier tick must yield the
    // same traces for any lane count — faults are part of the
    // deterministic cross-shard contract.
    auto runOnce = [](unsigned jobs) {
        Rig rig;
        rig.net.setJobs(jobs);
        rig.net.runFor(5 * rig.net.window());
        rig.net.setLinkUp(0, 1, false);
        rig.net.runFor(5 * rig.net.window());
        rig.net.killNode(0);
        rig.net.runFor(10 * rig.net.window());
        return std::pair(rig.net.nodeTraceHash(0),
                         rig.net.nodeTraceHash(1));
    };
    const auto one = runOnce(1);
    EXPECT_EQ(one, runOnce(2));
    EXPECT_EQ(one, runOnce(4));
}

} // namespace
