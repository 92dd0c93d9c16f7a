/**
 * @file
 * Reproduces section 4.7: processor active power at low event rates.
 *
 * The paper combines per-handler energies (15-55 nJ at 1.8 V, 1.6-5.9
 * nJ at 0.6 V) with event rates below ten per second to get active
 * power of 150-550 nW at 1.8 V and 16-58 nW at 0.6 V. We measure it
 * directly: a Temperature node samples at a configurable rate and the
 * ledger total over a long run divided by wall time is the power.
 */

#include <cstdio>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "common.hh"
#include "net/parallel_network.hh"
#include "node/power.hh"
#include "sensor/sensor.hh"

namespace {

using namespace snaple;
using namespace snaple::bench;

double
measurePowerNw(double volts, double events_per_sec)
{
    // Timer tick is 1 us; period in ticks.
    unsigned period = static_cast<unsigned>(1e6 / events_per_sec);
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "mon";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    cfg.core.volts = volts;
    auto &n = net.addNode(
        cfg, assembler::assembleSnap(apps::temperatureProgram(period)));
    sensor::TemperatureSensor sens;
    n.attachSensor(0, sens);
    net.start();
    net.runFor(50 * sim::kMillisecond); // boot
    Snapshot before = Snapshot::of(n);
    sim::Tick t0 = net.now();
    // Simulate enough events for a stable average.
    sim::Tick window = sim::fromSec(20.0 / events_per_sec);
    net.runFor(window);
    Episode e = Episode::between(before, Snapshot::of(n));
    return node::averagePowerNw(e.processorPj,
                                net.now() - t0);
}

} // namespace

int
main()
{
    banner("Section 4.7: processor active power vs event rate");

    std::printf("%12s | %16s %16s\n", "events/sec", "1.8V power (nW)",
                "0.6V power (nW)");
    rule('-', 52);
    for (double rate : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
        double p18 = measurePowerNw(1.8, rate);
        double p06 = measurePowerNw(0.6, rate);
        std::printf("%12.0f | %16.1f %16.1f\n", rate, p18, p06);
    }
    rule('-', 52);
    std::printf("Paper: at <= 10 events/s, 150-550 nW at 1.8 V and "
                "16-58 nW at 0.6 V\n(handlers of 70-250 instructions). "
                "The Temperature handler here is ~70\ninstructions, so "
                "the low end of the band is the right comparison.\n\n");

    // Battery-lifetime view of the same numbers.
    double p06_10 = measurePowerNw(0.6, 10.0);
    std::printf("A CR2032 coin cell (%.0f J) powering the processor at "
                "10 events/s\n(0.6 V) would last ~%.0f years (compute "
                "only; radio and leakage excluded).\n",
                node::kCoinCellJoules,
                node::lifetimeDays(node::kCoinCellJoules,
                                   p06_10 * 1e-9) /
                    365.0);
    return 0;
}
