/**
 * @file
 * Host-side simulator performance (google-benchmark): how many guest
 * instructions and kernel events per wall-clock second the CHP
 * simulation sustains. Not a paper artifact — an engineering
 * benchmark for the simulator itself.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <vector>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "baseline/avr_backend.hh"
#include "baseline/avr_core.hh"
#include "baseline/tinyos.hh"
#include "core/machine.hh"
#include "net/parallel_network.hh"
#include "scenario/runner.hh"
#include "sensor/sensor.hh"
#include "sim/trace.hh"

namespace {

using namespace snaple;

std::string
mixProgram(int iterations)
{
    return R"(
        li  sp, 2000
        li  r1, )" + std::to_string(iterations) + R"(
        li  r2, 3
        li  r4, 100
    loop:
        add r2, r2
        add r2, r1
        ldw r5, 0(r4)
        add r5, r2
        stw r5, 1(r4)
        slli r5, 2
        dec r1
        bnez r1, loop
        halt
    )";
}

// ---------------------------------------------------------------
// Kernel-only microbenchmarks: the scheduling hot path with no guest
// model on top. These are the numbers the event arena / EventFn /
// binary-heap rework targets directly.

/** A self-rescheduling callback event (the pure schedule+dispatch
 *  cycle, no coroutines involved). */
struct CallbackChain
{
    sim::Kernel &kernel;
    sim::Tick period;
    std::uint64_t remaining;

    void
    arm()
    {
        if (remaining-- == 0)
            return;
        kernel.scheduleAfter(period, [this] { arm(); });
    }
};

void
BM_KernelScheduleDispatch(benchmark::State &state)
{
    // 16 interleaved chains with co-prime-ish periods keep a small
    // heap busy with out-of-order insertions, like a real node mix.
    std::uint64_t events = 0;
    for (auto _ : state) {
        sim::Kernel kernel;
        std::vector<CallbackChain> chains;
        chains.reserve(16);
        for (int i = 0; i < 16; ++i) {
            chains.push_back(
                CallbackChain{kernel, sim::Tick(i % 7 + 1), 10000});
            chains.back().arm();
        }
        kernel.run();
        events += kernel.eventsDispatched();
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("kernel events/s");
}
BENCHMARK(BM_KernelScheduleDispatch);

sim::Co<void>
delayLoop(sim::Kernel &kernel, sim::Tick period, int n)
{
    for (int i = 0; i < n; ++i)
        co_await kernel.delay(period);
}

void
BM_KernelCoroutineResume(benchmark::State &state)
{
    // The scheduleResume/dispatch cycle: four processes trading the
    // event list, the shape of every delay() in the models.
    std::uint64_t events = 0;
    for (auto _ : state) {
        sim::Kernel kernel;
        for (int i = 0; i < 4; ++i)
            kernel.spawn(delayLoop(kernel, sim::Tick(2 * i + 3), 40000),
                         "loop");
        kernel.run();
        events += kernel.eventsDispatched();
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("kernel events/s");
}
BENCHMARK(BM_KernelCoroutineResume);

sim::Co<void>
pinger(sim::Channel<int> &out, sim::Channel<int> &back, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await out.send(i);
        (void)co_await back.recv();
    }
}

sim::Co<void>
ponger(sim::Channel<int> &in, sim::Channel<int> &back, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        int v = co_await in.recv();
        co_await back.send(v);
    }
}

void
BM_ChannelPingPong(benchmark::State &state)
{
    // CHP rendezvous throughput: two processes, two channels, four
    // suspensions per round trip.
    std::uint64_t events = 0;
    constexpr int kRounds = 50000;
    for (auto _ : state) {
        sim::Kernel kernel;
        sim::Channel<int> a(kernel, 2, "ping");
        sim::Channel<int> b(kernel, 2, "pong");
        kernel.spawn(pinger(a, b, kRounds), "pinger");
        kernel.spawn(ponger(a, b, kRounds), "ponger");
        kernel.run();
        events += kernel.eventsDispatched();
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("kernel events/s");
}
BENCHMARK(BM_ChannelPingPong);

void
BM_TraceSinkEmit(benchmark::State &state)
{
    // The determinism fingerprint alone: a hash-only sink (what the
    // scenario runner attaches to every node) fed through TraceScope,
    // the path every instrumentation point takes. Half the events
    // carry integer arguments, half an energy amount; all vary per
    // event so no record's hash folds to a constant.
    sim::Kernel kernel;
    sim::TraceSink sink(false);
    kernel.setTracer(&sink);
    sim::TraceScope fetch(kernel, "core.fetch");
    sim::TraceScope energy(kernel, "energy.core");
    constexpr std::uint64_t kPairs = 1024;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < kPairs; ++i) {
            fetch.emit(sim::TraceEvent::CoreFetch, i, i * 3);
            energy.emit(sim::TraceEvent::EnergyDebit, 0, 0, 0.5 * double(i));
        }
    }
    benchmark::DoNotOptimize(sink.hash());
    state.SetItemsProcessed(static_cast<int64_t>(sink.eventCount()));
    state.SetLabel("trace events/s");
}
BENCHMARK(BM_TraceSinkEmit);

void
BM_NodeNetworkScaling(benchmark::State &state)
{
    // Full-system scaling: one sender, a line of relays, one sink, at
    // --jobs 1. Events/s should stay roughly flat as nodes are added —
    // each shard's heap holds only its own node's events, and the
    // barrier exchange is linear in the node count.
    const int nodes = static_cast<int>(state.range(0));
    auto snd = assembler::assembleSnap(
        apps::senderNodeProgram(1, nodes, {0xCAFE}, 5));
    auto sink = assembler::assembleSnap(apps::sinkNodeProgram(nodes));
    std::vector<assembler::Program> relays;
    for (int n = 2; n < nodes; ++n)
        relays.push_back(
            assembler::assembleSnap(apps::relayNodeProgram(n)));
    std::uint64_t events = 0;
    for (auto _ : state) {
        net::ParallelNetwork net;
        node::NodeConfig c;
        c.core.stopOnHalt = false;
        c.name = "n1";
        net.addNode(c, snd);
        for (int n = 2; n < nodes; ++n) {
            c.name = "n" + std::to_string(n);
            net.addNode(c, relays[static_cast<std::size_t>(n - 2)]);
        }
        c.name = "n" + std::to_string(nodes);
        net.addNode(c, sink);
        net.setLineTopology();
        net.start();
        net.runFor(200 * sim::kMillisecond);
        events += net.eventsDispatched();
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("kernel events/s");
}
BENCHMARK(BM_NodeNetworkScaling)->RangeMultiplier(2)->Range(2, 8);

/**
 * A MAC node app that burns @p iters ALU-loop rounds every
 * @p period_us, and (when @p sink >= 0) also offers one DATA frame per
 * activation. The busy loop is what gives every shard real work
 * between sync barriers — an idle line of relays would measure barrier
 * overhead, not parallel simulation.
 */
std::string
busyApp(unsigned period_us, unsigned iters, int sink)
{
    std::string sched = "        li   r1, 0\n        li   r2, " +
                        std::to_string(period_us >> 16) +
                        "\n        schedhi r1, r2\n        li   r2, " +
                        std::to_string(period_us & 0xffff) +
                        "\n        schedlo r1, r2\n";
    std::string send;
    if (sink >= 0)
        send = R"(
        ldw  r5, TX_PEND(r0)
        bnez r5, bz_rearm       ; frame in flight: skip this round
        ldw  r3, APP_BASE(r0)
        inc  r3
        stw  r3, APP_BASE(r0)
        stw  r3, TX_BUF+2(r0)
        li   r1, )" + std::to_string(sink) + R"(
        li   r2, 1
        call send_data
)";
    return R"(
app_boot:
        li   r1, EV_T0
        la   r2, bz_timer
        setaddr r1, r2
        clr  r3
        stw  r3, APP_BASE(r0)
)" + sched + R"(        ret

bz_timer:
        li   r6, )" + std::to_string(iters) + R"(
bz_loop:
        add  r7, r6
        slli r7, 1
        dec  r6
        bnez r6, bz_loop
)" + send + R"(bz_rearm:
)" + sched + R"(        done

app_rx:
        ret
)";
}

void
BM_ParallelNetworkScaling(benchmark::State &state)
{
    // The sharded engine on its natural workload: N busy nodes on a
    // line, node 1 offering periodic DATA to the sink at N. Every
    // node's app burns an ALU loop each millisecond so shards have
    // comparable work per sync window. range(0) = nodes, range(1) =
    // worker lanes; /N/1 vs /N/4 is the parallel speedup (on a
    // multi-core host) at bit-identical simulation results.
    const int nodes = static_cast<int>(state.range(0));
    const unsigned jobs = static_cast<unsigned>(state.range(1));
    std::vector<assembler::Program> progs;
    for (int a = 1; a <= nodes; ++a)
        progs.push_back(assembler::assembleSnap(apps::macNodeProgram(
            static_cast<unsigned>(a),
            busyApp(1000, 150, a == 1 ? nodes : -1))));
    std::uint64_t events = 0;
    for (auto _ : state) {
        net::ParallelNetwork net(1 * sim::kMicrosecond, jobs);
        node::NodeConfig c;
        c.core.stopOnHalt = false;
        c.baseSeed = 0x5eed0f5eed0f5eedull;
        for (int a = 1; a <= nodes; ++a) {
            c.name = "n" + std::to_string(a);
            net.addNode(c, progs[static_cast<std::size_t>(a - 1)]);
        }
        net.setLineTopology();
        net.start();
        net.runFor(200 * sim::kMillisecond);
        events += net.eventsDispatched();
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("kernel events/s");
}
BENCHMARK(BM_ParallelNetworkScaling)
    ->Args({2, 1})
    ->Args({2, 4})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 1})
    ->Args({8, 4})
    ->UseRealTime();

/** Rx-parked beacon with a seed-staggered first round: every node
 *  boots into receive mode; beacons draw a per-node LFSR offset so
 *  the field sees staggered, partially-overlapping traffic rather
 *  than one synchronized pileup. */
const char *kFieldBeacon = R"(
    .equ EV_T0, 0
    .equ EV_TXRDY, 6
    .equ CMD_RX, 0x8001
    .equ CMD_TX, 0x8002
boot:
    li   r1, EV_T0
    la   r2, on_t0
    setaddr r1, r2
    li   r1, EV_TXRDY
    la   r2, on_txrdy
    setaddr r1, r2
    li   r15, CMD_RX
    rand r3
    andi r3, 0x1fff
    addi r3, 100
    li   r1, 0
    schedlo r1, r3
    done
on_t0:
    li   r15, CMD_TX
    mov  r15, r4
    addi r4, 1
    li   r1, 0
    li   r2, 10000
    schedlo r1, r2
    done
on_txrdy:
    li   r15, CMD_RX
    done
)";

const char *kFieldListener = R"(
    .equ EV_RX, 3
    .equ CMD_RX, 0x8001
boot:
    li   r1, EV_RX
    la   r2, on_rx
    setaddr r1, r2
    li   r15, CMD_RX
    done
on_rx:
    mov  r3, r15
    done
)";

void
BM_FieldScaling(benchmark::State &state)
{
    // The spatial field channel at sensor-network scale: N nodes on a
    // 20 m grid (default 30 m cells, ~46 m sensitivity range), every
    // 16th node beaconing every 10 ms from a seed-staggered offset.
    // Cell sharding bounds each flight's work to its neighborhood, so
    // events/s should hold roughly flat from 1k to 100k nodes; the
    // run is bit-identical for any --jobs (FieldNetworkTest).
    const std::size_t nodes = static_cast<std::size_t>(state.range(0));
    const std::size_t side = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(nodes))));
    const assembler::Program beacon =
        assembler::assembleSnap(kFieldBeacon, "beacon.s");
    const assembler::Program listener =
        assembler::assembleSnap(kFieldListener, "listener.s");
    std::uint64_t events = 0;
    for (auto _ : state) {
        net::ParallelNetwork net(1 * sim::kMicrosecond, 1);
        node::NodeConfig c;
        c.core.stopOnHalt = false;
        c.baseSeed = 0xf1e1d5ca1edbeef1ull;
        for (std::size_t i = 0; i < nodes; ++i) {
            c.name = "n" + std::to_string(i);
            net.addNode(c, i % 16 == 0 ? beacon : listener);
        }
        net.setField(radio::FieldConfig{});
        for (std::size_t i = 0; i < nodes; ++i)
            net.setNodePosition(i,
                                20.0 * static_cast<double>(i % side),
                                20.0 * static_cast<double>(i / side));
        net.start();
        net.runFor(20 * sim::kMillisecond);
        events += net.eventsDispatched();
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("kernel events/s");
}
BENCHMARK(BM_FieldScaling)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_SnapCoreMix(benchmark::State &state)
{
    auto prog = assembler::assembleSnap(mixProgram(2000));
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        sim::Kernel kernel;
        core::Machine m(kernel, {});
        m.load(prog);
        m.start();
        kernel.run();
        instructions += m.core().stats().instructions;
    }
    state.SetItemsProcessed(static_cast<int64_t>(instructions));
    state.SetLabel("guest instructions/s");
}
BENCHMARK(BM_SnapCoreMix);

void
BM_SnapCoreMixFast(benchmark::State &state)
{
    // The statistical fast tier on the same mix (docs/SIMULATOR.md):
    // the predecoded interpreter retires instructions from cached
    // decoded lines and charges time/energy per class at flush
    // boundaries instead of per CHP rendezvous. The items/s ratio over
    // BM_SnapCoreMix is the tier's speedup (ROADMAP targets 50-100x).
    // A larger loop count than the cycle bench keeps per-iteration
    // setup (kernel + machine construction) out of the measurement —
    // at fast-tier speed the cycle bench's 2000 rounds retire in
    // microseconds.
    auto prog = assembler::assembleSnap(mixProgram(60000));
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        sim::Kernel kernel;
        core::Machine m(kernel, {});
        m.load(prog);
        m.start(core::FidelityMode::Fast);
        kernel.run();
        instructions += m.core().stats().instructions;
    }
    state.SetItemsProcessed(static_cast<int64_t>(instructions));
    state.SetLabel("guest instructions/s");
}
BENCHMARK(BM_SnapCoreMixFast);

void
BM_ScenarioScaling(benchmark::State &state)
{
    // The scenario engine end to end on the shipped golden scenarios,
    // at both execution fidelities: range(0) picks the scenario,
    // range(1) the fidelity (0 = cycle, 1 = fast, forced onto every
    // node via the RunOptions override). The cycle/fast pair for one
    // scenario is the whole-system payoff of the fast tier — radio,
    // sensors and the barrier exchange are unchanged, only the core's
    // instruction execution switches models.
    static const char *kNames[] = {"trickle", "dutycycle"};
    const auto name =
        std::string(kNames[static_cast<std::size_t>(state.range(0))]);
    const bool fast = state.range(1) != 0;
    const scenario::Scenario sc = scenario::loadScenario(
        std::string(SNAPLE_SOURCE_DIR) + "/examples/scenarios/" + name +
        ".scn");
    std::uint64_t events = 0;
    for (auto _ : state) {
        scenario::RunOptions opt;
        opt.fidelityFast = fast;
        const scenario::RunResult res = scenario::runScenario(sc, opt);
        benchmark::DoNotOptimize(res.combinedTraceHash);
        events += res.air.wordsSent;
    }
    benchmark::DoNotOptimize(events);
    state.SetLabel(name + (fast ? " / fast" : " / cycle"));
}
BENCHMARK(BM_ScenarioScaling)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_AvrBaselineBlink(benchmark::State &state)
{
    auto prog = baseline::assembleAvr(baseline::avrBlinkProgram(4000));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        sim::Kernel kernel;
        baseline::AvrMcu::Config cfg;
        cfg.stopOnHalt = false;
        baseline::AvrMcu mcu(kernel, cfg, prog);
        mcu.start();
        kernel.run(kernel.now() + 20 * sim::kMillisecond);
        cycles += mcu.stats().cyclesActive;
    }
    state.SetItemsProcessed(static_cast<int64_t>(cycles));
    state.SetLabel("guest cycles/s");
}
BENCHMARK(BM_AvrBaselineBlink);

void
BM_FourNodeAodvNetwork(benchmark::State &state)
{
    auto snd = assembler::assembleSnap(
        apps::senderNodeProgram(1, 4, {0xCAFE}, 5));
    auto rel2 = assembler::assembleSnap(apps::relayNodeProgram(2));
    auto rel3 = assembler::assembleSnap(apps::relayNodeProgram(3));
    auto sink = assembler::assembleSnap(apps::sinkNodeProgram(4));
    std::uint64_t events = 0;
    for (auto _ : state) {
        net::ParallelNetwork net;
        node::NodeConfig c;
        c.core.stopOnHalt = false;
        c.name = "n1";
        net.addNode(c, snd);
        c.name = "n2";
        net.addNode(c, rel2);
        c.name = "n3";
        net.addNode(c, rel3);
        c.name = "n4";
        net.addNode(c, sink);
        net.setLineTopology();
        net.start();
        net.runFor(500 * sim::kMillisecond);
        events += net.eventsDispatched();
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("kernel events/s");
}
BENCHMARK(BM_FourNodeAodvNetwork);

} // namespace

BENCHMARK_MAIN();
