/**
 * @file
 * Heap footprint of what every node holds: an idle sim::Fifo, an
 * unrecorded histogram and one field-listener ParallelNetwork node.
 *
 * This binary replaces the global operator new with a counting one, so
 * it stays out of sanitizer builds (which replace it themselves). The
 * counters only run inside a Counting scope; gtest's own allocations
 * outside one are ignored.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/snap_backend.hh"
#include "core/ports.hh"
#include "net/parallel_network.hh"
#include "sim/channel.hh"
#include "sim/kernel.hh"
#include "sim/metrics.hh"

namespace {

bool gCounting = false;
std::size_t gAllocs = 0;
std::size_t gBytes = 0;

} // namespace

void *
operator new(std::size_t n)
{
    if (gCounting) {
        ++gAllocs;
        gBytes += n;
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Kept out of line: inlined into a delete expression, GCC 12 sees
// free() on a pointer from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace snaple {
namespace {

/** Counts the heap blocks and bytes requested while it lives. */
struct Counting
{
    Counting()
    {
        gAllocs = gBytes = 0;
        gCounting = true;
    }
    ~Counting() { gCounting = false; }
    std::size_t allocs() const { return gAllocs; }
    std::size_t bytes() const { return gBytes; }
};

TEST(NodeFootprintTest, IdleFifoHoldsOnlyItsRing)
{
    sim::Kernel k;
    {
        Counting c;
        sim::Fifo<core::EventToken> evq(k, 8, 3, "n1.evq");
        EXPECT_LE(c.allocs(), 1u);
        EXPECT_EQ(c.bytes(), 8 * sizeof(core::EventToken));
    }
    {
        Counting c;
        sim::Fifo<std::uint16_t> rx(k, 4, 0, "n1.msgin");
        EXPECT_TRUE(rx.tryPush(1));
        EXPECT_TRUE(rx.tryPush(2));
        EXPECT_EQ(c.allocs(), 1u);
        EXPECT_EQ(c.bytes(), 4 * sizeof(std::uint16_t));
    }
}

TEST(NodeFootprintTest, UnrecordedHistogramAllocatesNothing)
{
    sim::MetricHistogram empty;
    {
        Counting c;
        sim::MetricHistogram h;
        h.mergeFrom(empty);
        h.reset();
        EXPECT_EQ(h.bucket(3), 0u);
        EXPECT_EQ(h.percentile(50), 0.0);
        EXPECT_EQ(c.allocs(), 0u);
    }
    {
        Counting c;
        sim::MetricHistogram h;
        h.record(5);
        h.record(6);
        EXPECT_EQ(c.allocs(), 1u);
        EXPECT_EQ(c.bytes(),
                  sim::MetricHistogram::kNumBuckets * sizeof(std::uint64_t));
    }
    // A registry's eight per-event histograms cost less than one
    // bucket array apiece until something is recorded.
    sim::MetricsRegistry reg;
    reg.counter("warm");
    {
        Counting c;
        for (char e = '0'; e < '8'; ++e)
            reg.histogram(std::string("core.evq_wait_ticks.") + e);
        EXPECT_LT(c.bytes(), 8 * sim::MetricHistogram::kNumBuckets *
                                 sizeof(std::uint64_t));
    }
}

TEST(NodeFootprintTest, FieldListenerNodeStaysUnder24KB)
{
    // The field_2500 listener: radio on, every word consumed.
    const std::string source = R"(
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
    const assembler::Program listener =
        assembler::assembleSnap(source, "listener.s");
    net::ParallelNetwork net(sim::kMicrosecond, 1);
    node::NodeConfig cfg;
    cfg.core.stopOnHalt = false;
    cfg.baseSeed = 0xf1e1d5ca1edbeef1ull;
    cfg.name = "n0";
    net.addNode(cfg, listener);

    // Mean over 64 nodes, so the shard vector's growth is amortized as
    // it is in a large field.
    constexpr std::size_t kNodes = 64;
    std::vector<std::string> names;
    for (std::size_t i = 1; i <= kNodes; ++i)
        names.push_back("n" + std::to_string(i));
    std::size_t bytes = 0;
    {
        Counting c;
        for (const std::string &name : names) {
            cfg.name = name;
            net.addNode(cfg, listener);
        }
        bytes = c.bytes();
    }
    std::printf("heap per addNode: %zu B\n", bytes / kNodes);
    EXPECT_LE(bytes / kNodes, 24u * 1024u);
}

} // namespace
} // namespace snaple
