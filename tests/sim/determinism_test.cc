/**
 * @file
 * Trace-hash determinism tests.
 *
 * The simulator promises bit-reproducible runs: the same program, the
 * same configuration and the same RNG seeds must produce the exact
 * same event stream. The 64-bit trace hash folds every traced event
 * (scope, type, timestamp, arguments, energy) into one word, so two
 * equal hashes mean two runs that agree on every handshake, wakeup,
 * fetch, timer and energy debit — and a seed change must flip it.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "net/parallel_network.hh"
#include "sim/hash.hh"
#include "sim/trace.hh"

namespace {

using namespace snaple;
using assembler::assembleSnap;

struct TraceResult
{
    std::uint64_t hash;
    std::uint64_t events;
    std::uint64_t instructions;
};

/** Blink on a bare Machine: no RNG involved at all. */
TraceResult
runBlink(double volts)
{
    core::CoreConfig cfg;
    cfg.volts = volts;
    sim::Kernel kernel;
    sim::TraceSink sink(/*record=*/false); // hash-only, no event list
    kernel.setTracer(&sink);
    core::Machine m(kernel, cfg);
    m.load(assembleSnap(apps::blinkProgram()));
    m.start();
    kernel.runFor(50 * sim::kMillisecond);
    return {sink.hash(), sink.eventCount(), m.core().stats().instructions};
}

/**
 * A two-node MAC/AODV exchange. The guest programs seed their LFSRs
 * with the node address during boot, so to control the CSMA backoff
 * stream we let boot finish (1 ms; the first TX is timer-scheduled at
 * 5 ms) and then overwrite both LFSRs from the host seed. Each node
 * has its own sink; the result folds both per-node hashes in
 * registration order.
 */
TraceResult
runMacExchange(std::uint16_t seed)
{
    net::ParallelNetwork net;
    node::NodeConfig ca, cb;
    ca.name = "a";
    cb.name = "b";
    ca.core.stopOnHalt = cb.core.stopOnHalt = false;
    auto &snd = net.addNode(
        ca, assembleSnap(apps::senderNodeProgram(1, 2, {111, 222, 333})));
    auto &rcv = net.addNode(cb, assembleSnap(apps::sinkNodeProgram(2)));
    net.enableTracing(/*record=*/false);
    net.start();

    net.runFor(1 * sim::kMillisecond); // past the guests' `seed` at boot
    snd.core().seedLfsr(seed);
    rcv.core().seedLfsr(static_cast<std::uint16_t>(seed ^ 0x5aa5));
    net.runFor(300 * sim::kMillisecond);

    EXPECT_EQ(rcv.dmem().peek(apps::layout::kStDeliv), 1u)
        << "MAC exchange did not complete with seed " << seed;
    // SnapNode::traceHash surfaces the node's own shard sink.
    EXPECT_EQ(snd.traceHash(), net.nodeTraceHash(0));
    EXPECT_EQ(rcv.traceHash(), net.nodeTraceHash(1));
    return {sim::hashRecord(sim::kFnvOffset, net.nodeTraceHash(0),
                            net.nodeTraceHash(1)),
            net.nodeTracer(0)->eventCount() +
                net.nodeTracer(1)->eventCount(),
            0};
}

TEST(DeterminismTest, BlinkTraceHashIsReproducible)
{
    TraceResult a = runBlink(0.6);
    TraceResult b = runBlink(0.6);
    EXPECT_GT(a.events, 0u);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(DeterminismTest, BlinkTraceHashSeesTimingChanges)
{
    // Not an RNG effect, but the same property from the other side:
    // a voltage change shifts every timestamp, so the hash must move.
    TraceResult slow = runBlink(0.6);
    TraceResult fast = runBlink(1.0);
    EXPECT_NE(slow.hash, fast.hash);
}

TEST(DeterminismTest, MacTraceHashIsReproducibleForEqualSeeds)
{
    TraceResult a = runMacExchange(0x1234);
    TraceResult b = runMacExchange(0x1234);
    EXPECT_GT(a.events, 0u);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.events, b.events);
}

TEST(DeterminismTest, MacTraceHashDivergesAcrossSeeds)
{
    // Different seeds change the guests' CSMA backoff draws, which
    // move every subsequent timer and radio event.
    TraceResult a = runMacExchange(0x1234);
    TraceResult b = runMacExchange(0x9abc);
    EXPECT_NE(a.hash, b.hash);
}

} // namespace
