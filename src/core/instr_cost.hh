/**
 * @file
 * What one instruction costs: the single answer both fidelity tiers
 * read.
 *
 * SNAP/LE never speculates, its SRAMs have no port contention, and its
 * fetch queue and redirect channel add no handshake delay. So an
 * instruction's cost is a pure function of its decoded form and the
 * node's operating point:
 *
 *  - the cycle tier (core/core.cc) pays it charge by charge as its
 *    fetch and execute processes run; busTransfer() and unitOp() read
 *    the per-bus and per-unit costs from here;
 *  - the fast tier (core/fast_core.cc) prices each predecoded line
 *    once with instrCost() and advances the same two-process
 *    fetch/execute recurrence per retirement.
 *
 * tests/core/instr_cost_test.cc runs every opcode form at both tiers
 * and holds them to equal ticks and energy.
 */

#ifndef SNAPLE_CORE_INSTR_COST_HH
#define SNAPLE_CORE_INSTR_COST_HH

#include <array>
#include <cstdint>

#include "core/context.hh"
#include "energy/ledger.hh"
#include "isa/instruction.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace snaple::core {

/** One datapath operation: latency in gate delays, energy in nominal
 *  (1.8 V) picojoules. */
struct OpCost
{
    double gd = 0;
    double pj = 0;
};

/** Flat-bus ablation (CoreConfig::flatBus): per-transfer latency in
 *  gate delays and energy in pJ on the one heavily loaded bus. */
inline constexpr double kFlatBusGd = 6.0;
inline constexpr double kFlatBusPj = 9.0;

/** One bus transfer between the register file and @p u. */
inline OpCost
busCost(const NodeContext &ctx, isa::Unit u)
{
    if (ctx.cfg.flatBus) // every unit hangs off one loaded bus
        return {kFlatBusGd, kFlatBusPj};
    if (isa::onFastBus(u))
        return {ctx.tcal.busFastGd, ctx.ecal.busFastPj};
    // Slow-bus units reach the register file through the fast bus.
    return {ctx.tcal.busFastGd + ctx.tcal.busSlowGd,
            ctx.ecal.busFastPj + ctx.ecal.busSlowPj};
}

/** One operation of execution unit @p u. */
inline OpCost
unitCost(const NodeContext &ctx, isa::Unit u)
{
    const energy::TimingCal &t = ctx.tcal;
    const energy::EnergyCal &e = ctx.ecal;
    switch (u) {
      case isa::Unit::Adder: return {t.adderGd, e.adderPj};
      case isa::Unit::Logic: return {t.logicGd, e.logicPj};
      case isa::Unit::Shifter: return {t.shifterGd, e.shifterPj};
      case isa::Unit::Lfsr: return {t.lfsrGd, e.lfsrPj};
      case isa::Unit::Branch: return {t.branchGd, e.branchPj};
      case isa::Unit::LdStD:
      case isa::Unit::LdStI: return {t.ldstGd, e.ldstPj};
      case isa::Unit::TimerIf: return {t.timerIfGd, e.timerIfPj};
      default: sim::panic("unitOp on unknown unit");
    }
}

/** Whether @p d goes through an execution unit (two bus transfers and
 *  a unit op); `done` and the sys forms do not. */
inline bool
usesUnit(const isa::DecodedInst &d)
{
    return !(d.op == isa::Op::Event && d.eventFn() == isa::EventFn::Done) &&
           d.op != isa::Op::Sys;
}

/**
 * The cost of one instruction at one node's operating point. Ticks
 * are rounded through NodeContext::gd() delay by delay, as the cycle
 * tier's awaits round them, and then summed.
 *
 * The execute side is split at its *accesses*: the points where it
 * reads or writes r15 (a message-FIFO transfer) or sends a timer
 * command. Their duration depends on the coprocessors, not on the
 * instruction. exec[0] is the execute time from taking the
 * instruction to its first access, exec[i] from access i to access
 * i + 1, and exec[accesses] from the last access to retirement.
 */
struct InstrCost
{
    /** r15 read of rd, r15 read of rs, then an r15 write or a timer
     *  command: at most three accesses per instruction. */
    static constexpr std::size_t kMaxAccesses = 3;

    sim::Tick fetchPerWord = 0; ///< fetch-side ticks per word
    std::uint8_t words = 1;
    std::uint8_t accesses = 0;
    /** Fetch waits for execute's redirect (SNAP/LE never speculates). */
    bool control = false;
    isa::InstrClass cls = isa::InstrClass::Sys;
    std::array<sim::Tick, kMaxAccesses + 1> exec{};
    /** Dynamic energy by ledger category, nominal (1.8 V) pJ. */
    std::array<double, energy::kNumCats> pj{};

    sim::Tick fetchTicks() const { return fetchPerWord * words; }

    double
    pjTotal() const
    {
        double t = 0;
        for (double v : pj)
            t += v;
        return t;
    }

    bool operator==(const InstrCost &) const = default;
};

/** Price @p d at @p ctx's operating point, charge by charge as the
 *  cycle tier's fetch and execute processes pay for it. */
InstrCost instrCost(const isa::DecodedInst &d, const NodeContext &ctx);

} // namespace snaple::core

#endif // SNAPLE_CORE_INSTR_COST_HH
