/**
 * @file
 * Metrics end-to-end determinism: a seeded multi-node run must stream
 * byte-identical metrics output for any worker-lane count, and the
 * energy gauges must cover the whole run — leakage counts to the
 * final simulated tick even when every node is asleep at the end.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "net/parallel_network.hh"
#include "sim/kernel.hh"

namespace {

using namespace snaple;

// A jittered beacon: every node arms Timer0 with a rand-jittered
// period, transmits one word per expiration, and listens in between.
// Mirrors examples/metrics_demo.s; the LFSR jitter makes the nodes
// genuinely divergent, so equality across job counts is a real test.
const char *kBeaconProgram = R"(
    .equ EV_T0,    0
    .equ EV_RX,    3
    .equ EV_TXRDY, 6
    .equ CMD_RX,   0x8001
    .equ CMD_TX,   0x8002
    .equ PERIOD,   1500
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
    inc  r4
    li   r15, CMD_TX
    mov  r15, r4
    done
on_txrdy:
    li   r15, CMD_RX
rearm:
    rand r2
    andi r2, 0x03ff
    addi r2, PERIOD
    li   r1, 0
    schedlo r1, r2
    done
on_rx:
    mov  r3, r15
    dbgout r3
    done
)";

/** Run 4 beacon nodes for 40 ms and return the metrics stream. */
std::string
runMetrics(unsigned jobs, bool csv)
{
    net::ParallelNetwork net(1 * sim::kMicrosecond, jobs);
    assembler::Program prog = assembler::assembleSnap(kBeaconProgram);
    const double volts[] = {1.8, 0.9, 0.6};
    node::NodeConfig cfg;
    cfg.core.stopOnHalt = false;
    cfg.baseSeed = 0xfeed;
    for (unsigned i = 0; i < 4; ++i) {
        cfg.core.volts = volts[i % 3];
        cfg.name = "n" + std::to_string(i);
        node::SnapNode &n = net.addNode(cfg, prog);
        n.core().enableProfile(true);
    }
    net.enableAirTrace(/*capacity=*/8); // force some ring overwrites
    std::ostringstream out;
    net.enableMetrics(out, 10 * sim::kMillisecond, csv);
    net.start();
    net.runFor(40 * sim::kMillisecond);
    net.finishMetrics();
    return out.str();
}

TEST(MetricsEqualityTest, JsonlIsByteIdenticalAcrossJobCounts)
{
    const std::string j1 = runMetrics(1, /*csv=*/false);
    const std::string j2 = runMetrics(2, /*csv=*/false);
    const std::string j4 = runMetrics(4, /*csv=*/false);
    ASSERT_FALSE(j1.empty());
    EXPECT_EQ(j1, j2);
    EXPECT_EQ(j1, j4);
    // The stream holds meta, per-node, aggregate and channel rows.
    EXPECT_NE(j1.find("\"kind\":\"meta\""), std::string::npos);
    EXPECT_NE(j1.find("\"node\":\"n3\""), std::string::npos);
    EXPECT_NE(j1.find("\"node\":\"all\""), std::string::npos);
    EXPECT_NE(j1.find("\"node\":\"net\""), std::string::npos);
    EXPECT_NE(j1.find("\"kind\":\"profile\""), std::string::npos);
    EXPECT_NE(j1.find("core.evq_wait_ticks"), std::string::npos);
}

TEST(MetricsEqualityTest, CsvIsByteIdenticalAcrossJobCounts)
{
    const std::string c1 = runMetrics(1, /*csv=*/true);
    const std::string c4 = runMetrics(4, /*csv=*/true);
    ASSERT_FALSE(c1.empty());
    EXPECT_EQ(c1, c4);
    EXPECT_EQ(c1.rfind("t,node,name,type,value", 0), 0u);
}

TEST(MetricsEqualityTest, RepeatedSeededRunsAreByteIdentical)
{
    EXPECT_EQ(runMetrics(2, false), runMetrics(2, false));
}

TEST(MetricsLeakageTest, LeakageAccruesToTheFinalTickOnExit)
{
    // A node that boots and sleeps forever: with no dynamic activity
    // after boot, the final sample's leakage must still cover the
    // long sleep. kernel.run(until) pins now() to the horizon even
    // after the event queue drains, so the gauge must equal the full
    // run length times the static power.
    sim::Kernel kernel;
    sim::TraceSink sink;
    kernel.setTracer(&sink);
    core::CoreConfig cfg;
    cfg.volts = 0.6;
    core::Machine m(kernel, cfg);
    m.load(assembler::assembleSnap("boot: done\n"));
    m.start();
    const sim::Tick until = 10 * sim::kMillisecond;
    kernel.run(until);
    ASSERT_EQ(kernel.now(), until);
    const std::uint64_t hash = sink.hash();

    m.sampleMetrics();
    const double leakPj =
        m.ctx().metrics.gauge("energy.leakage_pj").value();
    const double expectPj =
        m.ctx().leakagePowerNw() * 1e-9 * sim::toSec(until) * 1e12;
    EXPECT_DOUBLE_EQ(leakPj, expectPj);

    // A sample is a read: sampling again at the same tick gives the
    // same value, and neither sample emitted a trace event.
    m.sampleMetrics();
    EXPECT_DOUBLE_EQ(
        m.ctx().metrics.gauge("energy.leakage_pj").value(), leakPj);
    EXPECT_EQ(sink.hash(), hash);
}

} // namespace
