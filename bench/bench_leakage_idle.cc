/**
 * @file
 * Extension of section 4.7 toward the paper's future work: total
 * node power including *static* (leakage) power.
 *
 * The paper measures dynamic energy and defers idle power ("we are
 * currently working on getting accurate idle power estimates from
 * SPICE"). This bench adds a parameterized leakage model
 * (energy/calibration.hh) and shows where the leakage floor takes
 * over from handler (dynamic) power as the event rate falls — the
 * quantitative reason the authors care about idle power at tens of
 * events per second.
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

struct PowerSplit
{
    double dynamicNw;
    double leakNw;
};

PowerSplit
measure(double volts, double events_per_sec)
{
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
    net.runFor(50 * sim::kMillisecond);
    double pj0 = n.ctx().ledger.processorPj();
    sim::Tick window = sim::fromSec(10.0 / events_per_sec);
    net.runFor(window);
    PowerSplit r;
    r.dynamicNw = node::averagePowerNw(
        n.ctx().ledger.processorPj() - pj0, window);
    r.leakNw = n.ctx().leakagePowerNw();
    return r;
}

} // namespace

int
main()
{
    banner("Extension (paper section 6 future work): idle/leakage "
           "power floor");

    std::printf("%10s | %22s | %22s\n", "", "0.6 V (nW)",
                "1.8 V (nW)");
    std::printf("%10s | %8s %6s %6s | %8s %6s %6s\n", "events/s",
                "dynamic", "leak", "total", "dynamic", "leak",
                "total");
    rule('-', 62);
    for (double rate : {0.1, 1.0, 10.0, 100.0, 1000.0}) {
        PowerSplit p06 = measure(0.6, rate);
        PowerSplit p18 = measure(1.8, rate);
        std::printf("%10.1f | %8.1f %6.0f %6.0f | %8.0f %6.0f %6.0f\n",
                    rate, p06.dynamicNw, p06.leakNw,
                    p06.dynamicNw + p06.leakNw, p18.dynamicNw,
                    p18.leakNw, p18.dynamicNw + p18.leakNw);
    }
    rule('-', 62);
    std::printf("With the placeholder 180nm leakage calibration "
                "(%.1f uW @1.8V, scaled by\nvoltage), leakage "
                "dominates below ~1000 events/s at 1.8 V and below\n"
                "~100 events/s at 0.6 V — exactly why the paper's "
                "future work chases idle\npower for data-monitoring "
                "rates of tens of events per second.\n",
                (energy::EnergyCal{}.leakLogicNw18 +
                 energy::EnergyCal{}.leakMemNw18) /
                    1000.0);
    return 0;
}
