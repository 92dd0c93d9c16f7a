/**
 * @file
 * Reproduces the third TinyOS comparison of section 4.6: the MICA
 * high-speed radio stack (SEC-DED byte coding + CRC-16 + byte-serial
 * radio interface).
 *
 * Paper numbers: ~780 AVR cycles per transmitted data byte on the
 * mote (ISR ~30% of cycles) versus 331 SNAP cycles — a ~60% reduction.
 */

#include <cstdio>
#include <vector>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "baseline/avr_backend.hh"
#include "baseline/avr_core.hh"
#include "baseline/tinyos.hh"
#include "common.hh"
#include "net/crc.hh"
#include "net/parallel_network.hh"

namespace {

using namespace snaple;
using namespace snaple::bench;

const std::vector<std::uint8_t> kMsg = {0x10, 0x32, 0x54, 0x76, 0x98,
                                        0xBA, 0xDC, 0xFE, 0x11, 0x22,
                                        0x33, 0x44, 0x55, 0x66, 0x77,
                                        0x88};

double
runSnap()
{
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "stack";
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(
        cfg, assembler::assembleSnap(apps::radioStackProgram(kMsg)));
    net.start();
    net.runFor(sim::kSecond);
    sim::fatalIf(n.core().debugOut().empty(),
                 "SNAP stack did not finish");
    sim::fatalIf(n.core().debugOut()[0] != snaple::net::crc16(kMsg),
                 "SNAP stack CRC mismatch");
    return double(n.core().stats().instructions) / kMsg.size();
}

struct AvrResult
{
    double cycles_per_byte;
    double isr_share;
};

AvrResult
runAvr()
{
    sim::Kernel kernel;
    baseline::AvrMcu::Config cfg;
    cfg.stopOnHalt = false;
    auto prog =
        baseline::assembleAvr(baseline::avrRadioStackProgram(kMsg));
    baseline::AvrMcu mcu(kernel, cfg, prog);
    mcu.start();
    kernel.run(kernel.now() + 10 * sim::kSecond);
    sim::fatalIf(!mcu.halted(), "AVR stack did not finish");
    double total = double(mcu.stats().cyclesActive);
    double isr = double(mcu.cyclesInRange(
        static_cast<std::uint16_t>(prog.symbol("isr_spi")),
        static_cast<std::uint16_t>(prog.symbol("task_send"))));
    return AvrResult{total / kMsg.size(), isr / total};
}

} // namespace

int
main()
{
    banner("Section 4.6: MICA high-speed radio stack "
           "(SEC-DED + CRC per byte)");

    AvrResult avr = runAvr();
    double snap = runSnap();

    std::printf("%-42s %10s %10s\n", "", "measured", "paper");
    rule('-', 68);
    std::printf("%-42s %10.0f %10d\n", "TinyOS/AVR cycles per byte",
                avr.cycles_per_byte, 780);
    std::printf("%-42s %9.0f%% %9.0f%%\n", "  ISR share of cycles",
                100.0 * avr.isr_share, 30.0);
    std::printf("%-42s %10.0f %10d\n", "SNAP/LE instructions per byte",
                snap, 331);
    std::printf("%-42s %9.0f%% %9.0f%%\n", "reduction SNAP vs mote",
                100.0 * (1.0 - snap / avr.cycles_per_byte), 60.0);
    rule('-', 68);
    std::printf("Both implementations produce bit-identical codewords "
                "and CRC (verified\nagainst the host reference "
                "codecs in tests).\n");
    return 0;
}
