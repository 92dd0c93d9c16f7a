/**
 * @file
 * Side-by-side run of the same application — a periodic LED blink —
 * on both simulated platforms: SNAP/LE (hardware event queue, timer
 * coprocessor) and the AVR-class mote running the TinyOS-like runtime
 * (interrupts + software task scheduler). This is the experiment
 * behind Figure 5, presented as a narrative.
 *
 * Build & run:  ./build/examples/blink_comparison
 */

#include <cstdio>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "baseline/avr_backend.hh"
#include "baseline/avr_core.hh"
#include "baseline/tinyos.hh"
#include "net/parallel_network.hh"

int
main()
{
    using namespace snaple;

    const double seconds = 2.0;
    const unsigned blink_ms = 100;

    // --- SNAP/LE at 0.6 V ---
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "snap-blink";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    cfg.core.volts = 0.6;
    auto &snap = net.addNode(
        cfg, assembler::assembleSnap(
                 apps::blinkProgram(blink_ms * 1000)));
    net.start();
    net.runFor(sim::fromSec(seconds));

    // --- the mote: AVR-class MCU + TinyOS-like runtime ---
    sim::Kernel avr_kernel;
    baseline::AvrMcu::Config mcfg;
    mcfg.stopOnHalt = false;
    auto prog = baseline::assembleAvr(
        baseline::avrBlinkProgram(blink_ms * 4000)); // 4 MHz clock
    baseline::AvrMcu mcu(avr_kernel, mcfg, prog);
    mcu.start();
    avr_kernel.runFor(sim::fromSec(seconds));

    const auto &sst = snap.core().stats();
    double snap_blinks = double(snap.core().debugOut().size());
    double avr_blinks = double(mcu.ledTrace().size());

    std::printf("the same app, %.0f simulated seconds, one blink "
                "every %u ms:\n\n",
                seconds, blink_ms);
    std::printf("%-36s %14s %14s\n", "", "SNAP/LE @0.6V",
                "AVR + TinyOS");
    std::printf("%-36s %14.0f %14.0f\n", "blinks", snap_blinks,
                avr_blinks);
    std::printf("%-36s %14.1f %14.1f\n", "instructions|cycles per blink",
                double(sst.instructions) / snap_blinks,
                double(mcu.stats().cyclesActive) / avr_blinks);
    std::printf("%-36s %14.2f %14.0f\n", "energy per blink (nJ)",
                snap.ctx().ledger.processorPj() / 1000.0 / snap_blinks,
                mcu.activeEnergyNj() / avr_blinks);
    std::printf("%-36s %14.4f %14.4f\n", "duty cycle (%)",
                100.0 * sim::toSec(snap.core().activeTimeNow()) /
                    seconds,
                100.0 * double(mcu.stats().cyclesActive) /
                    (mcu.stats().cyclesActive +
                     mcu.stats().cyclesSleep));

    double ratio = (mcu.activeEnergyNj() / avr_blinks) /
                   (snap.ctx().ledger.processorPj() / 1000.0 /
                    snap_blinks);
    std::printf("\nenergy advantage: %.0fx per blink (paper reports "
                "1960 nJ vs 0.5 nJ ~ 3900x).\n",
                ratio);
    std::printf("Where it comes from: no interrupt entry/exit, no "
                "context save/restore, no\nsoftware scheduler — the "
                "event queue and timer coprocessor do it in "
                "hardware —\nplus tens-of-pJ asynchronous "
                "instructions at 0.6 V.\n");
    return 0;
}
