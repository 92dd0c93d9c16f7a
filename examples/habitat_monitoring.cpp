/**
 * @file
 * Habitat monitoring: the paper's motivating deployment style
 * (section 4.2 cites the Great Duck Island habitat work [29]).
 *
 * A four-node line network: a sensing node periodically samples a
 * temperature sensor and ships each reading to a sink across two
 * relay hops. Routes are discovered on demand with the AODV layer;
 * frames ride the 19.2 kbps TR1000-class radio through the MAC with
 * CSMA backoff. The report shows deliveries, per-node energy split
 * (processor vs radio) and duty cycles.
 *
 * Build & run:  ./build/examples/habitat_monitoring
 */

#include <cstdio>
#include <string>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "node/power.hh"
#include "sensor/sensor.hh"

namespace {

using namespace snaple;

/**
 * The sensing application: every PERIOD the node samples sensor 0 and
 * sends the reading to the sink (node 4), discovering a route first
 * if necessary.
 */
std::string
monitorApp(unsigned sink, unsigned period_ms)
{
    // 24-bit timer period: high byte via schedhi, low 16 via schedlo.
    unsigned ticks = period_ms * 1000;
    std::string p = "        li   r2, " + std::to_string(ticks >> 16) +
                    "\n        schedhi r1, r2\n        li   r2, " +
                    std::to_string(ticks & 0xffff) +
                    "\n        schedlo r1, r2\n";
    return R"(
app_boot:
        li   r1, EV_T0
        la   r2, mon_timer
        setaddr r1, r2
        li   r1, EV_SDATA
        la   r2, mon_data
        setaddr r1, r2
        li   r1, 0
)" + p + R"(        ret

mon_timer:
        li   r15, CMD_QUERY     ; sample sensor 0
        done

mon_data:
        mov  r4, r15            ; the reading
        ; don't clobber a frame already in flight
        ldw  r5, TX_PEND(r0)
        bnez r5, mon_rearm
        stw  r4, TX_BUF+2(r0)   ; payload word 0
        li   r1, )" + std::to_string(sink) + R"(
        li   r2, 1
        call send_data          ; sends, or floods an RREQ first
mon_rearm:
        li   r1, 0
)" + p + R"(        done

app_rx:
        ret
)";
}

} // namespace

int
main()
{
    using namespace snaple;

    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.core.stopOnHalt = false;
    cfg.core.volts = 0.6; // the paper's target operating point

    cfg.name = "sensor-1";
    auto &mon = net.addNode(
        cfg, assembler::assembleSnap(
                 apps::macNodeProgram(1, monitorApp(4, 250))));
    cfg.name = "relay-2";
    auto &r2 = net.addNode(
        cfg, assembler::assembleSnap(apps::relayNodeProgram(2)));
    cfg.name = "relay-3";
    auto &r3 = net.addNode(
        cfg, assembler::assembleSnap(apps::relayNodeProgram(3)));
    cfg.name = "sink-4";
    auto &sink = net.addNode(
        cfg, assembler::assembleSnap(apps::sinkNodeProgram(4)));

    sensor::TemperatureSensor::Config scfg;
    scfg.period = 10 * sim::kSecond;
    sensor::TemperatureSensor temperature(scfg);
    mon.attachSensor(0, temperature);

    net.setLineTopology(); // 1 - 2 - 3 - 4: multihop is mandatory
    net.start();

    const double seconds = 10.0;
    std::printf("simulating %.0f s of a 4-node line network "
                "(sample every 250 ms)...\n\n",
                seconds);
    net.runFor(sim::fromSec(seconds));

    // Delivered readings at the sink.
    const auto &readings = sink.core().debugOut();
    std::printf("sink received %zu readings", readings.size());
    if (!readings.empty()) {
        std::printf(" (last 5:");
        for (std::size_t i = readings.size() - std::min<std::size_t>(
                                                   5, readings.size());
             i < readings.size(); ++i)
            std::printf(" %u", readings[i]);
        std::printf(")");
    }
    std::printf("\nroute at sensor-1 toward sink-4: next hop = node "
                "%u (expected 2)\n",
                mon.dmem().peek(apps::layout::kRtBase + 4));
    std::printf("frames forwarded: relay-2 %u, relay-3 %u; "
                "collisions on the air: %llu\n\n",
                r2.dmem().peek(apps::layout::kStFwd),
                r3.dmem().peek(apps::layout::kStFwd),
                static_cast<unsigned long long>(
                    net.stats().collisions));

    std::printf("%-10s %12s %12s %12s %10s\n", "node", "proc uJ",
                "radio uJ", "duty cycle", "asleep");
    for (std::size_t i = 0; i < net.size(); ++i) {
        auto &n = net.node(i);
        n.transceiver()->accrueListenEnergy(); // idle listening too
        const auto &l = n.ctx().ledger;
        std::printf("%-10s %12.2f %12.1f %11.4f%% %10s\n",
                    n.name().c_str(), l.processorPj() / 1e6,
                    l.pj(energy::Cat::Radio) / 1e6,
                    100.0 * sim::toSec(n.core().activeTimeNow()) /
                        seconds,
                    n.core().asleep() ? "yes" : "no");
    }

    const auto &l = mon.ctx().ledger;
    double proc_w = node::averagePowerW(l.processorPj(),
                                        sim::fromSec(seconds));
    double all_w =
        node::averagePowerW(l.totalPj(), sim::fromSec(seconds));
    std::printf("\nsensing node: processor-only power %.0f nW; with "
                "the TR1000-class radio %.1f uW\n(almost all of it "
                "idle listening at ~11.4 mW whenever the receiver is "
                "on).\n",
                proc_w * 1e9, all_w * 1e6);
    std::printf("On two AA cells (%.0f kJ) that is ~%.0f years of "
                "compute vs ~%.1f years with\nthis radio duty cycle — "
                "the paper's point that once communication is "
                "self-powered\n(MEMS RF [13]), computation energy "
                "decides the lifetime.\n",
                node::kTwoAaJoules / 1000.0,
                node::lifetimeDays(node::kTwoAaJoules, proc_w) / 365.0,
                node::lifetimeDays(node::kTwoAaJoules, all_w) / 365.0);
    return 0;
}
