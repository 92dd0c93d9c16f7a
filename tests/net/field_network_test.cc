/**
 * @file
 * Spatial field mode on the sharded parallel network.
 *
 * Pins the cell-sharded AirExchange contract: worker count is
 * invisible (trace hashes and every air counter bit-identical for any
 * --jobs), a receiver sitting exactly on a cell boundary still hears
 * its neighbors, the per-opportunity accounting identity closes at
 * every barrier, the cell size changes no result, idle-listening
 * energy is in every metrics sample without any end-of-run help, and
 * geometry the int32 cell grid cannot index is rejected at start().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "asm/snap_backend.hh"
#include "energy/ledger.hh"
#include "net/parallel_network.hh"
#include "node/node.hh"
#include "radio/field_medium.hh"
#include "radio/transceiver.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace {

using namespace snaple;
using assembler::assembleSnap;
using net::ParallelNetwork;
using node::NodeConfig;

/** Beacon with an injectable period so co-located transmitters drift
 *  in and out of overlap instead of colliding forever. */
std::string
beaconProgram(unsigned periodUs)
{
    return ".equ PERIOD, " + std::to_string(periodUs) + R"(
    .equ EV_T0, 0
    .equ EV_TXRDY, 6
    .equ CMD_RX, 0x8001
    .equ CMD_TX, 0x8002
boot:
    li   r1, EV_T0
    la   r2, on_t0
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
    li   r2, PERIOD
    schedlo r1, r2
    done
)";
}

/** Pure listener: receive mode forever, log words through dbgout. */
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
    dbgout r3
    done
)";

NodeConfig
cfgFor(const std::string &name)
{
    NodeConfig c;
    c.name = name;
    c.baseSeed = 77;
    c.core.stopOnHalt = false;
    return c;
}

/** Everything observable from one field-mode run. */
struct FieldRun
{
    std::vector<std::uint64_t> hashes;
    std::vector<std::size_t> dbgCounts;
    radio::Medium::Stats air;
    std::uint64_t rxInRange = 0;
    std::uint64_t dropsLink = 0, dropsDead = 0;
    std::uint64_t pendingRx = 0;
};

/**
 * Three beacons and three listeners spread over four 30 m cells:
 * enough spatial structure that some pairs are out of range, some
 * overlaps capture and some garble — all of it must be identical for
 * any worker count.
 */
FieldRun
runFieldNet(unsigned jobs, sim::Tick duration = 200 * sim::kMillisecond,
            double cellM = radio::FieldConfig{}.cellM,
            bool transpose = false)
{
    ParallelNetwork net(1 * sim::kMicrosecond, jobs);
    net.addNode(cfgFor("b0"), assembleSnap(beaconProgram(1200)));
    net.addNode(cfgFor("b1"), assembleSnap(beaconProgram(1500)));
    net.addNode(cfgFor("b2"), assembleSnap(beaconProgram(1900)));
    net.addNode(cfgFor("l0"), assembleSnap(kListener));
    net.addNode(cfgFor("l1"), assembleSnap(kListener));
    net.addNode(cfgFor("l2"), assembleSnap(kListener));
    radio::FieldConfig fc;
    fc.cellM = cellM;
    net.setField(fc);
    const double pos[6][2] = {{0, 0},  {40, 10}, {80, 0},
                              {20, 0}, {60, 5},  {100, 0}};
    for (std::size_t i = 0; i < 6; ++i)
        net.setNodePosition(i, pos[i][transpose], pos[i][!transpose]);
    net.enableTracing(/*record=*/false);
    net.start();
    net.runFor(duration);

    FieldRun r;
    for (std::size_t i = 0; i < net.size(); ++i) {
        r.hashes.push_back(net.nodeTraceHash(i));
        r.dbgCounts.push_back(net.node(i).core().debugOut().size());
    }
    r.air = net.stats();
    r.rxInRange = net.airRxInRange();
    r.dropsLink = net.airDropsLink();
    r.dropsDead = net.airDropsDead();
    r.pendingRx = net.airPendingDeliveries();
    return r;
}

TEST(FieldNetworkTest, TraceHashesAndAirCountersMatchAcrossJobs)
{
    FieldRun j1 = runFieldNet(1);
    FieldRun j2 = runFieldNet(2);
    FieldRun j4 = runFieldNet(4);

    // The field produced real, spatially-filtered traffic.
    EXPECT_GT(j1.air.wordsSent, 0u);
    EXPECT_GT(j1.air.wordsDelivered, 0u);
    EXPECT_GT(j1.rxInRange, j1.air.wordsDelivered);

    for (const FieldRun *o : {&j2, &j4}) {
        EXPECT_EQ(j1.hashes, o->hashes);
        EXPECT_EQ(j1.dbgCounts, o->dbgCounts);
        EXPECT_EQ(j1.air.wordsSent, o->air.wordsSent);
        EXPECT_EQ(j1.air.wordsDelivered, o->air.wordsDelivered);
        EXPECT_EQ(j1.air.collisions, o->air.collisions);
        EXPECT_EQ(j1.air.dropsMode, o->air.dropsMode);
        EXPECT_EQ(j1.air.dropsFifo, o->air.dropsFifo);
        EXPECT_EQ(j1.rxInRange, o->rxInRange);
        EXPECT_EQ(j1.pendingRx, o->pendingRx);
    }
}

TEST(FieldNetworkTest, FieldCountersReconcilePerOpportunity)
{
    // rx_in_range == delivered + collisions + drops_mode + drops_fifo
    // + drops_link + drops_dead + pending offers. Every runFor() ends
    // on a barrier with outcomes drained, so the identity must close
    // at any observation instant — not only at quiescence.
    for (const sim::Tick t :
         {50 * sim::kMillisecond, 200 * sim::kMillisecond}) {
        FieldRun r = runFieldNet(2, t);
        EXPECT_EQ(r.rxInRange,
                  r.air.wordsDelivered + r.air.collisions +
                      r.air.dropsMode + r.air.dropsFifo + r.dropsLink +
                      r.dropsDead + r.pendingRx)
            << "at " << t;
    }
}

TEST(FieldNetworkTest, CellSizeDoesNotChangeTheRun)
{
    // cell_m only sets the granularity of the exchange's cell index:
    // the radio ranges, not the cells, decide who hears and who
    // interferes. At 1e4 m all six nodes share one cell, so that run
    // is the brute-force reference; 3 m and 1 mm cells put every
    // node in its own cell, with reaches of 16 and ~46k cells. The
    // transposed field (x and y swapped) keeps every distance, so it
    // must run the same too, with the spread on the other axis.
    const FieldRun ref = runFieldNet(2, 200 * sim::kMillisecond, 1e4);
    EXPECT_GT(ref.air.wordsDelivered, 0u);
    EXPECT_GT(ref.air.collisions, 0u);
    for (const bool transpose : {false, true}) {
        for (const double cellM : {1e4, 30.0, 3.0, 0.001}) {
            if (cellM == 1e4 && !transpose)
                continue; // the reference itself
            SCOPED_TRACE(testing::Message()
                         << "cell_m " << cellM
                         << (transpose ? ", transposed" : ""));
            const FieldRun r =
                runFieldNet(2, 200 * sim::kMillisecond, cellM, transpose);
            EXPECT_EQ(ref.hashes, r.hashes);
            EXPECT_EQ(ref.dbgCounts, r.dbgCounts);
            EXPECT_EQ(ref.air.wordsSent, r.air.wordsSent);
            EXPECT_EQ(ref.air.wordsDelivered, r.air.wordsDelivered);
            EXPECT_EQ(ref.air.collisions, r.air.collisions);
            EXPECT_EQ(ref.air.dropsMode, r.air.dropsMode);
            EXPECT_EQ(ref.air.dropsFifo, r.air.dropsFifo);
            EXPECT_EQ(ref.rxInRange, r.rxInRange);
            EXPECT_EQ(ref.dropsLink, r.dropsLink);
            EXPECT_EQ(ref.dropsDead, r.dropsDead);
            EXPECT_EQ(ref.pendingRx, r.pendingRx);
        }
    }
}

TEST(FieldNetworkTest, CellBoundaryReceiverHearsNeighborCells)
{
    // A receiver exactly on a cell edge (x = cellM) must hear in-range
    // transmitters from both adjacent cells; one beyond the
    // sensitivity range stays silent regardless of cells.
    ParallelNetwork net(1 * sim::kMicrosecond, 2);
    radio::FieldConfig fc; // cellM = 30, range ~46.4 m
    const double range = radio::field::rangeM(fc, fc.sensitivityDbm);
    net.addNode(cfgFor("left"), assembleSnap(beaconProgram(1200)));
    net.addNode(cfgFor("right"), assembleSnap(beaconProgram(1700)));
    net.addNode(cfgFor("far"), assembleSnap(beaconProgram(1300)));
    net.addNode(cfgFor("rx"), assembleSnap(kListener));
    net.setField(fc);
    net.setNodePosition(0, 5, 0);   // cell 0, 25 m from rx
    net.setNodePosition(1, 58, 0);  // cell 1, 28 m from rx
    net.setNodePosition(2, 30 + range * 1.2, 0); // out of range
    net.setNodePosition(3, fc.cellM, 0);         // exactly on the edge
    net.start();
    net.runFor(100 * sim::kMillisecond);

    // Sanity: the model agrees with the geometry.
    EXPECT_GT(net.rssiDbm(0, 3), fc.sensitivityDbm);
    EXPECT_GT(net.rssiDbm(1, 3), fc.sensitivityDbm);
    EXPECT_LT(net.rssiDbm(2, 3), fc.sensitivityDbm);

    // Words from both neighbor cells reached the boundary receiver.
    const std::vector<std::uint16_t> &got =
        net.node(3).core().debugOut();
    EXPECT_GT(got.size(), 0u);
    EXPECT_GT(net.stats().wordsDelivered, 0u);

    // The far beacon transmitted but never became an opportunity at
    // any receiver it cannot reach: every one of its words is either
    // unheard or (for the in-range pair it does reach) accounted.
    EXPECT_GT(net.stats().wordsSent, 0u);
}

TEST(FieldNetworkTest, ListenEnergyFlushedAtMetricsSampleBarriers)
{
    // Regression: a node parked in Rx spends idle-listening energy
    // without any mode change; every metrics sample must see the true
    // total as of its own barrier, not the value at the last mode
    // change.
    ParallelNetwork net(1 * sim::kMicrosecond, 1);
    net.addNode(cfgFor("rx"), assembleSnap(kListener));
    std::ostringstream metrics;
    net.enableMetrics(metrics, 10 * sim::kMillisecond);
    net.start();
    net.runFor(25 * sim::kMillisecond);

    // Samples at 10 ms and 20 ms: the last one must cover >= ~20 ms
    // of 11.4 mW listening (minus the sub-ms boot before CMD_RX), and
    // less than 21 ms (it lands on the first barrier at or after
    // 20 ms); a read at the end covers the 25 ms run.
    const radio::Transceiver *t = net.node(0).transceiver();
    ASSERT_NE(t, nullptr);
    const double nwToPj = radio::kRxListenNw * 1e-9 * 1e12;
    const double sampledPj =
        net.node(0).ctx().metrics.gauge("energy.radio_pj").value();
    EXPECT_GE(sampledPj, nwToPj * 0.019);
    EXPECT_LT(sampledPj, nwToPj * 0.021);
    const double radioPj =
        net.node(0).ctx().energy().pj(energy::Cat::Radio);
    EXPECT_GE(radioPj, nwToPj * 0.024);
    EXPECT_LE(radioPj, nwToPj * 0.025);
    EXPECT_FALSE(metrics.str().empty());
}

TEST(FieldNetworkTest, GeometryOutsideTheCellGridIsFatal)
{
    // Regression: finalizeField() converted floor(x / cell_m) and the
    // radio reaches to int32 unchecked, so a .scn position of 1e12 m
    // was undefined behaviour that ran and exited 0. Each case must
    // fail cleanly at start(), naming the culprit.
    struct Case
    {
        double cellM, x;
        const char *needle;
    };
    const Case cases[] = {
        {30.0, 1e12, "node 1"},        // cell ~3.3e10 on its own
        {1.0, -2147483600.0, "node 1"}, // 47 cells inside int32, but
                                        // the ~167-cell reach is not
        {1e-12, 0.0, "radio reach"},   // the reach itself overflows
    };
    for (const Case &c : cases) {
        radio::FieldConfig fc;
        fc.cellM = c.cellM;
        ParallelNetwork net;
        net.addNode(cfgFor("l0"), assembleSnap(kListener));
        net.addNode(cfgFor("l1"), assembleSnap(kListener));
        net.setField(fc);
        net.setNodePosition(0, 0, 0);
        net.setNodePosition(1, c.x, 7);
        std::string err;
        try {
            net.start();
        } catch (const sim::FatalError &e) {
            err = e.what();
        }
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << "cell_m " << c.cellM << ", x " << c.x << ": '" << err
            << "'";
    }
}

} // namespace
