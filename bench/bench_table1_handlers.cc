/**
 * @file
 * Reproduces Table 1: dynamic instruction counts and energy for the
 * six benchmark handlers, at 1.8 / 0.9 / 0.6 V.
 *
 * Each workload is measured as an episode: the node is run to
 * quiescence after boot, a stimulus is applied (a timer firing, or a
 * frame injected into the receiver), and the node is run back to
 * quiescence; the episode is the delta in instructions and processor
 * energy. This matches the paper's "handler" granularity — everything
 * the processor executes because of one external event.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "common.hh"
#include "net/parallel_network.hh"
#include "sensor/sensor.hh"

namespace {

using namespace snaple;
using namespace snaple::bench;

struct PaperRow
{
    const char *name;
    unsigned insts;
    double nj18, pj18, nj09, pj09, nj06, pj06;
};

const PaperRow kPaper[] = {
    {"Packet Transmission", 70, 15.1, 216, 3.8, 54, 1.6, 24},
    {"Packet Reception", 103, 22.5, 218, 5.6, 56, 2.5, 24},
    {"AODV Route Reply", 224, 48.1, 215, 12.0, 54, 5.2, 23},
    {"AODV Forward", 245, 53.7, 219, 13.5, 55, 5.9, 24},
    {"Temperature App", 140, 30.5, 218, 7.7, 55, 3.4, 24},
    {"Threshold App", 155, 33.7, 217, 8.5, 54.7, 3.8, 24},
};

node::NodeConfig
mkCfg(double volts, const char *name, bool radio = true)
{
    node::NodeConfig c;
    c.name = name;
    c.attachRadio = radio;
    c.core.stopOnHalt = false;
    c.core.volts = volts;
    return c;
}

void
inject(node::SnapNode &n, const std::vector<std::uint16_t> &frame)
{
    for (std::uint16_t w : frame)
        sim::fatalIf(!n.transceiver()->rxWords().tryPush(w),
                     "rx fifo overflow during injection");
}

/**
 * Wait for the stimulus to produce activity, then for real
 * quiescence: core asleep, instruction count stable, and no frame
 * still pending in the MAC transmit path (the CSMA backoff window
 * must not be mistaken for the end of the episode).
 */
void
runEpisode(net::ParallelNetwork &net, node::SnapNode &n,
           const Snapshot &before, bool has_mac = true)
{
    const sim::Tick deadline = net.now() + 2 * sim::kSecond;
    while (net.now() < deadline &&
           n.core().stats().instructions == before.instructions)
        net.runFor(sim::kMillisecond);
    std::uint64_t last = n.core().stats().instructions;
    while (net.now() < deadline) {
        net.runFor(2 * sim::kMillisecond);
        std::uint64_t now_count = n.core().stats().instructions;
        bool tx_idle =
            !has_mac || n.dmem().peek(apps::layout::kTxPend) == 0;
        if (n.core().asleep() && now_count == last && tx_idle)
            return;
        last = now_count;
    }
    sim::fatal("episode did not reach quiescence");
}

/** One measured workload at one voltage. */
using Runner = std::function<Episode(double volts)>;

Episode
measureTx(double volts)
{
    net::ParallelNetwork net;
    auto &snd = net.addNode(
        mkCfg(volts, "tx"),
        assembler::assembleSnap(apps::senderNodeProgram(
            1, 2, {0x1111, 0x2222, 0x3333, 0x4444}, /*delay_ms=*/5)));
    net.start();
    net.runFor(2 * sim::kMillisecond); // boot finished, timer pending
    // Pre-install the route (after mac_init cleared the table) so the
    // episode is pure MAC transmission, no discovery.
    snd.dmem().poke(apps::layout::kRtBase + 2, 2);
    Snapshot before = Snapshot::of(snd);
    runEpisode(net, snd, before);
    return Episode::between(before, Snapshot::of(snd));
}

Episode
measureRx(double volts)
{
    net::ParallelNetwork net;
    auto &sink = net.addNode(
        mkCfg(volts, "rx"),
        assembler::assembleSnap(apps::sinkNodeProgram(2)));
    net.start();
    net.runFor(2 * sim::kMillisecond);
    Snapshot before = Snapshot::of(sink);
    inject(sink, apps::buildFrame(apps::frame::kData, 1, 1, 2, 2,
                                  {0x1111, 0x2222, 0x3333, 0x4444}));
    runEpisode(net, sink, before);
    return Episode::between(before, Snapshot::of(sink));
}

Episode
measureRrep(double volts)
{
    net::ParallelNetwork net;
    auto &dst = net.addNode(
        mkCfg(volts, "dst"),
        assembler::assembleSnap(apps::relayNodeProgram(2)));
    net.start();
    net.runFor(2 * sim::kMillisecond);
    Snapshot before = Snapshot::of(dst);
    // A route request from node 1 looking for node 2 (us).
    inject(dst, apps::buildFrame(apps::frame::kRreq, 1, 1, 2,
                                 apps::frame::kBroadcast, {1}));
    runEpisode(net, dst, before);
    return Episode::between(before, Snapshot::of(dst));
}

Episode
measureForward(double volts)
{
    net::ParallelNetwork net;
    auto &relay = net.addNode(
        mkCfg(volts, "relay"),
        assembler::assembleSnap(apps::relayNodeProgram(2)));
    net.start();
    net.runFor(2 * sim::kMillisecond);
    relay.dmem().poke(apps::layout::kRtBase + 3, 3);
    Snapshot before = Snapshot::of(relay);
    // Data from node 1 to node 3, routed through us (node 2).
    inject(relay, apps::buildFrame(apps::frame::kData, 1, 1, 3, 2,
                                   {0xAAAA, 0xBBBB}));
    runEpisode(net, relay, before);
    return Episode::between(before, Snapshot::of(relay));
}

Episode
measureTemperature(double volts)
{
    net::ParallelNetwork net;
    auto &n = net.addNode(
        mkCfg(volts, "temp", /*radio=*/false),
        assembler::assembleSnap(apps::temperatureProgram(2000)));
    sensor::TemperatureSensor sens;
    n.attachSensor(0, sens);
    net.start();
    net.runFor(sim::kMillisecond); // boot done; first sample at 2 ms
    Snapshot before = Snapshot::of(n);
    const int iterations = 10;
    net.runFor(iterations * 2 * sim::kMillisecond);
    Episode e = Episode::between(before, Snapshot::of(n));
    e.instructions /= iterations;
    e.handlers /= iterations;
    e.activeTime /= iterations;
    e.processorPj /= iterations;
    return e;
}

Episode
measureThreshold(double volts)
{
    net::ParallelNetwork net;
    auto &n = net.addNode(
        mkCfg(volts, "thr"),
        assembler::assembleSnap(apps::thresholdNodeProgram(2)));
    net.start();
    net.runFor(2 * sim::kMillisecond);
    Snapshot before = Snapshot::of(n);
    inject(n, apps::buildFrame(apps::frame::kData, 1, 1, 2, 2,
                               {123, 456}));
    runEpisode(net, n, before);
    return Episode::between(before, Snapshot::of(n));
}

} // namespace

int
main()
{
    banner("Table 1: handler code statistics with energy "
           "(measured vs paper)");

    const std::pair<const char *, Runner> workloads[] = {
        {"Packet Transmission", measureTx},
        {"Packet Reception", measureRx},
        {"AODV Route Reply", measureRrep},
        {"AODV Forward", measureForward},
        {"Temperature App", measureTemperature},
        {"Threshold App", measureThreshold},
    };

    std::printf("%-20s %8s | %9s %9s | %9s %9s | %9s %9s\n", "task",
                "dyn.ins", "1.8V nJ", "pJ/ins", "0.9V nJ", "pJ/ins",
                "0.6V nJ", "pJ/ins");
    rule('-', 104);

    int row = 0;
    for (const auto &[name, runner] : workloads) {
        double nj[3];
        double pj[3];
        std::uint64_t insts = 0;
        int vi = 0;
        for (double volts : {1.8, 0.9, 0.6}) {
            Episode e = runner(volts);
            insts = e.instructions;
            nj[vi] = e.processorPj / 1000.0;
            pj[vi] = e.pjPerIns();
            ++vi;
        }
        std::printf("%-20s %8llu | %9.1f %9.0f | %9.1f %9.0f | "
                    "%9.1f %9.0f\n",
                    name, static_cast<unsigned long long>(insts),
                    nj[0], pj[0], nj[1], pj[1], nj[2], pj[2]);
        const PaperRow &p = kPaper[row++];
        std::printf("%-20s %8u | %9.1f %9.0f | %9.1f %9.0f | "
                    "%9.1f %9.0f\n",
                    "  (paper)", p.insts, p.nj18, p.pj18, p.nj09,
                    p.pj09, p.nj06, p.pj06);
    }
    rule('-', 104);
    std::printf("Shape checks: dynamic counts in the tens-to-hundreds; "
                "energy per handler in the\ntens of nJ at 1.8 V and "
                "single-digit nJ at 0.6 V; pJ/ins flat across "
                "handlers.\n");
    return 0;
}
