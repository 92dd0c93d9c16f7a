/**
 * @file
 * Reproduces Figure 5 and the first TinyOS comparison of section 4.6:
 * the periodic LED Blink program on SNAP/LE versus the TinyOS/AVR
 * baseline, split into useful work and scheduling overhead.
 *
 * Paper numbers: TinyOS/mote 523 cycles per blink, of which 16 are the
 * toggle and 507 are interrupt + scheduler overhead; SNAP 41 cycles;
 * 1960 nJ vs 6.8 nJ (1.8 V) / 0.5 nJ (0.6 V) per blink.
 */

#include <cstdio>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "baseline/avr_backend.hh"
#include "baseline/avr_core.hh"
#include "baseline/tinyos.hh"
#include "common.hh"
#include "net/parallel_network.hh"

namespace {

using namespace snaple;
using namespace snaple::bench;

struct SnapResult
{
    double instructions_per_blink;
    double nj_per_blink;
};

SnapResult
runSnap(double volts)
{
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "blink";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    cfg.core.volts = volts;
    auto &n = net.addNode(
        cfg, assembler::assembleSnap(apps::blinkProgram(10000)));
    net.start();
    net.runFor(5 * sim::kMillisecond); // boot
    Snapshot before = Snapshot::of(n);
    const int blinks = 20;
    net.runFor(blinks * 10 * sim::kMillisecond);
    Episode e = Episode::between(before, Snapshot::of(n));
    return SnapResult{double(e.instructions) / blinks,
                      e.processorPj / 1000.0 / blinks};
}

struct AvrResult
{
    double total_cycles;
    double useful_cycles;
    double overhead_cycles;
    double nj_per_blink;
};

AvrResult
runAvr()
{
    sim::Kernel kernel;
    baseline::AvrMcu::Config cfg;
    cfg.stopOnHalt = false;
    auto prog =
        baseline::assembleAvr(baseline::avrBlinkProgram(40000));
    baseline::AvrMcu mcu(kernel, cfg, prog);
    mcu.start();
    // Skip boot, then measure 20 blinks (10 ms period at 4 MHz).
    kernel.run(kernel.now() + 5 * sim::kMillisecond);
    auto c0 = mcu.stats().cyclesActive;
    auto t0 = mcu.cyclesInRange(
        static_cast<std::uint16_t>(prog.symbol("task_blink")),
        static_cast<std::uint16_t>(prog.symbol("isr_adc")));
    std::size_t blinks0 = mcu.ledTrace().size();
    kernel.run(kernel.now() + 200 * sim::kMillisecond);
    double blinks = double(mcu.ledTrace().size() - blinks0);
    double total = double(mcu.stats().cyclesActive - c0) / blinks;
    double useful =
        double(mcu.cyclesInRange(
                   static_cast<std::uint16_t>(prog.symbol("task_blink")),
                   static_cast<std::uint16_t>(prog.symbol("isr_adc"))) -
               t0) /
        blinks;
    return AvrResult{total, useful, total - useful,
                     total * cfg.activeNjPerCycle};
}

} // namespace

int
main()
{
    banner("Figure 5: periodic LED Blink — TinyOS/AVR scheduling "
           "overhead vs SNAP/LE");

    AvrResult avr = runAvr();
    SnapResult s18 = runSnap(1.8);
    SnapResult s06 = runSnap(0.6);

    std::printf("%-34s %10s %10s\n", "", "measured", "paper");
    rule('-', 60);
    std::printf("%-34s %10.0f %10d\n",
                "TinyOS/AVR cycles per blink", avr.total_cycles, 523);
    std::printf("%-34s %10.0f %10d\n", "  useful (LED toggle task)",
                avr.useful_cycles, 16);
    std::printf("%-34s %10.0f %10d\n", "  ISR + scheduler overhead",
                avr.overhead_cycles, 507);
    std::printf("%-34s %10.0f %10d\n", "TinyOS/AVR nJ per blink",
                avr.nj_per_blink, 1960);
    rule('-', 60);
    std::printf("%-34s %10.1f %10d\n",
                "SNAP/LE instructions per blink",
                s18.instructions_per_blink, 41);
    std::printf("%-34s %10.1f %10.1f\n", "SNAP/LE nJ per blink @1.8V",
                s18.nj_per_blink, 6.8);
    std::printf("%-34s %10.2f %10.1f\n", "SNAP/LE nJ per blink @0.6V",
                s06.nj_per_blink, 0.5);
    rule('-', 60);
    std::printf("energy ratio TinyOS : SNAP@1.8V = %.0fx   "
                "(paper: %.0fx)\n",
                avr.nj_per_blink / s18.nj_per_blink, 1960.0 / 6.8);
    std::printf("energy ratio TinyOS : SNAP@0.6V = %.0fx   "
                "(paper: %.0fx)\n",
                avr.nj_per_blink / s06.nj_per_blink, 1960.0 / 0.5);
    return 0;
}
