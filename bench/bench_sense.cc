/**
 * @file
 * Reproduces the second TinyOS comparison of section 4.6: the Sense
 * application (periodic ADC sample, running average, LED display).
 *
 * Paper numbers: the mote needs 1118 cycles per iteration, 781 of
 * them interrupt-service and scheduler overhead (~70%); the SNAP
 * version needs 261 cycles.
 */

#include <cstdio>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "baseline/avr_backend.hh"
#include "baseline/avr_core.hh"
#include "baseline/tinyos.hh"
#include "common.hh"
#include "net/parallel_network.hh"
#include "sensor/sensor.hh"

namespace {

using namespace snaple;
using namespace snaple::bench;

double
runSnap()
{
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "sense";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(
        cfg, assembler::assembleSnap(apps::senseProgram(10000)));
    sensor::TemperatureSensor sens;
    n.attachSensor(0, sens);
    net.start();
    net.runFor(5 * sim::kMillisecond);
    Snapshot before = Snapshot::of(n);
    const int iters = 20;
    net.runFor(iters * 10 * sim::kMillisecond);
    Episode e = Episode::between(before, Snapshot::of(n));
    return double(e.instructions) / iters;
}

struct AvrResult
{
    double total;
    double overhead;
};

AvrResult
runAvr()
{
    sim::Kernel kernel;
    baseline::AvrMcu::Config cfg;
    cfg.stopOnHalt = false;
    auto prog = baseline::assembleAvr(baseline::avrSenseProgram(40000));
    baseline::AvrMcu mcu(kernel, cfg, prog);
    sensor::TemperatureSensor sens;
    mcu.attachSensor(sens);
    mcu.start();
    kernel.run(kernel.now() + 5 * sim::kMillisecond);
    auto c0 = mcu.stats().cyclesActive;
    auto u0 = mcu.cyclesInRange(
        static_cast<std::uint16_t>(prog.symbol("task_sense")),
        static_cast<std::uint16_t>(prog.symbol("isr_spi")));
    auto n0 = mcu.stats().adcConversions;
    kernel.run(kernel.now() + 200 * sim::kMillisecond);
    double iters = double(mcu.stats().adcConversions - n0);
    double total = double(mcu.stats().cyclesActive - c0) / iters;
    double useful =
        double(mcu.cyclesInRange(
                   static_cast<std::uint16_t>(prog.symbol("task_sense")),
                   static_cast<std::uint16_t>(prog.symbol("isr_spi"))) -
               u0) /
        iters;
    return AvrResult{total, total - useful};
}

} // namespace

int
main()
{
    banner("Section 4.6: the Sense application (sample + average + "
           "display)");

    AvrResult avr = runAvr();
    double snap = runSnap();

    std::printf("%-42s %10s %10s\n", "", "measured", "paper");
    rule('-', 68);
    std::printf("%-42s %10.0f %10d\n",
                "TinyOS/AVR cycles per iteration", avr.total, 1118);
    std::printf("%-42s %10.0f %10d\n",
                "  interrupt + scheduler overhead", avr.overhead, 781);
    std::printf("%-42s %9.0f%% %9.0f%%\n", "  overhead share",
                100.0 * avr.overhead / avr.total, 100.0 * 781 / 1118);
    std::printf("%-42s %10.1f %10d\n",
                "SNAP/LE instructions per iteration", snap, 261);
    std::printf("%-42s %10.1fx %9.1fx\n",
                "cycle-count ratio TinyOS : SNAP", avr.total / snap,
                1118.0 / 261.0);
    rule('-', 68);
    std::printf("Shape: multiple interrupts per iteration (timer + "
                "ADC) make the software\nevent layer dominate on the "
                "mote; the event queue + message coprocessor\nabsorb "
                "all of it on SNAP/LE.\n");
    return 0;
}
