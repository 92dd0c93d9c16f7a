/**
 * @file
 * Shared helpers for the reproduction benches: activity snapshots,
 * stats/energy episode deltas, and table formatting.
 *
 * Each bench binary regenerates one table or figure of the paper and
 * prints the measured rows next to the published values; the mapping
 * is indexed in DESIGN.md §3 and the results are recorded in
 * EXPERIMENTS.md.
 */

#ifndef SNAPLE_BENCH_COMMON_HH
#define SNAPLE_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "energy/ledger.hh"
#include "node/node.hh"

namespace snaple::bench {

/** A snapshot of one node's activity counters. */
struct Snapshot
{
    std::uint64_t instructions = 0;
    std::uint64_t handlers = 0;
    sim::Tick activeTime = 0;
    energy::EnergyLedger ledger;

    static Snapshot
    of(const node::SnapNode &n)
    {
        Snapshot s;
        s.instructions = n.core().stats().instructions;
        s.handlers = n.core().stats().handlers;
        s.activeTime = n.core().activeTimeNow();
        s.ledger = n.ctx().ledger;
        return s;
    }
};

/** Difference between two snapshots: one measured episode. */
struct Episode
{
    std::uint64_t instructions = 0;
    std::uint64_t handlers = 0;
    sim::Tick activeTime = 0;
    double processorPj = 0.0;

    static Episode
    between(const Snapshot &before, const Snapshot &after)
    {
        Episode e;
        e.instructions = after.instructions - before.instructions;
        e.handlers = after.handlers - before.handlers;
        e.activeTime = after.activeTime - before.activeTime;
        e.processorPj = after.ledger.since(before.ledger).processorPj();
        return e;
    }

    double
    pjPerIns() const
    {
        return instructions ? processorPj / double(instructions) : 0.0;
    }
};

/** Print a rule line for the report tables. */
inline void
rule(char c = '-', int width = 72)
{
    for (int i = 0; i < width; ++i)
        std::putchar(c);
    std::putchar('\n');
}

/** Print a bench banner naming the paper artifact it regenerates. */
inline void
banner(const std::string &title)
{
    rule('=');
    std::printf("%s\n", title.c_str());
    rule('=');
}

} // namespace snaple::bench

#endif // SNAPLE_BENCH_COMMON_HH
