/**
 * @file
 * The drift gate between the two fidelity tiers (core/instr_cost.hh).
 *
 * Every opcode form runs on an otherwise idle core, with and without
 * r15 operands, on split and flat buses, at 1.8 V and 0.6 V, nominal
 * and low-energy sizing. The fast tier prices each instruction with
 * instrCost() and advances the fetch/execute recurrence; the cycle
 * tier pays the same charges as its CHP processes run. Their per-PC
 * retire-to-retire ticks, their halt tick and their per-category
 * ledger must agree. Any change to one tier's charges that the other
 * does not follow fails here.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/instr_cost.hh"
#include "core/machine.hh"
#include "isa/instruction.hh"
#include "sim/kernel.hh"

namespace {

using namespace snaple;
using core::CoreConfig;
using core::FidelityMode;
using core::Machine;
using energy::Cat;
using isa::AluFn;
using isa::Op;

/** One instruction under test, in its plain-register form (rd = r1,
 *  rs = r2), with the operand values that keep it legal. */
struct Form
{
    std::string name;
    std::uint16_t word = 0;
    std::uint16_t imm = 0;
    std::uint16_t rdVal = 0;
    std::uint16_t rsVal = 0;
};

constexpr std::uint8_t kRd = 1;
constexpr std::uint8_t kRs = 2;

/**
 * Layout: the instruction at 0, then `nop; nop; halt`. Jump and branch
 * targets and the `done` handler skip the first nop, so control forms
 * show both the redirect and the refetch.
 */
std::vector<Form>
allForms()
{
    std::vector<Form> f;
    const auto alu = [&](const char *name, AluFn fn, bool imm) {
        const std::uint16_t w = imm ? isa::encodeAluI(fn, kRd)
                                    : isa::encodeAluR(fn, kRd, kRs);
        f.push_back({std::string(name) + (imm ? "i" : ""), w,
                     std::uint16_t(imm ? 0x1234 : 0), 0x00f0, 3});
    };
    const struct
    {
        const char *name;
        AluFn fn;
        bool hasImm;
    } alus[] = {
        {"add", AluFn::Add, true},   {"sub", AluFn::Sub, true},
        {"addc", AluFn::Addc, true}, {"subc", AluFn::Subc, true},
        {"and", AluFn::And, true},   {"or", AluFn::Or, true},
        {"xor", AluFn::Xor, true},   {"not", AluFn::Not, false},
        {"sll", AluFn::Sll, true},   {"srl", AluFn::Srl, true},
        {"sra", AluFn::Sra, true},   {"mov", AluFn::Mov, true},
        {"neg", AluFn::Neg, false},  {"rand", AluFn::Rand, false},
        {"seed", AluFn::Seed, false},
    };
    for (const auto &a : alus) {
        alu(a.name, a.fn, false);
        if (a.hasImm)
            alu(a.name, a.fn, true);
    }

    const std::uint16_t len1Target = 2; // instruction at 0 is 1 word
    const std::uint16_t len2Target = 3;
    f.push_back({"ldw", isa::encodeMem(Op::Ldw, kRd, kRs), 100, 0, 4});
    f.push_back({"stw", isa::encodeMem(Op::Stw, kRd, kRs), 100, 7, 4});
    f.push_back({"ldi", isa::encodeMem(Op::Ldi, kRd, kRs), 0, 0, 1});
    f.push_back({"sti", isa::encodeMem(Op::Sti, kRd, kRs), 200, 7, 4});
    for (const Op op : {Op::Beqz, Op::Bnez, Op::Bltz, Op::Bgez}) {
        const std::string n =
            std::string("branch") + std::to_string(int(op));
        const std::uint16_t w = isa::encodeBranch(op, kRd, 1);
        f.push_back({n + "_zero", w, 0, 0, 0});
        f.push_back({n + "_neg", w, 0, 0x8000, 0});
        f.push_back({n + "_pos", w, 0, 5, 0});
    }
    f.push_back({"jmp", isa::encodeJmp(isa::JmpFn::Jmp, kRd, kRs),
                 len2Target, 0, 0});
    f.push_back({"jal", isa::encodeJmp(isa::JmpFn::Jal, kRd, kRs),
                 len2Target, 0, 0});
    f.push_back({"jr", isa::encodeJmp(isa::JmpFn::Jr, kRd, kRs), 0, 0,
                 len1Target});
    f.push_back({"jalr", isa::encodeJmp(isa::JmpFn::Jalr, kRd, kRs), 0,
                 0, len1Target});
    f.push_back({"bfs", isa::encodeBfs(kRd, kRs), 0x0ff0, 0x1234, 0xabcd});
    f.push_back({"schedhi",
                 isa::encodeTimer(isa::TimerFn::SchedHi, kRd, kRs), 0, 1,
                 2});
    f.push_back({"schedlo",
                 isa::encodeTimer(isa::TimerFn::SchedLo, kRd, kRs), 0, 0,
                 500});
    f.push_back({"cancel",
                 isa::encodeTimer(isa::TimerFn::Cancel, kRd, kRs), 0, 2,
                 0});
    f.push_back({"done", isa::encodeEvent(isa::EventFn::Done, 0, 0), 0, 0,
                 0});
    f.push_back({"setaddr",
                 isa::encodeEvent(isa::EventFn::SetAddr, kRd, kRs), 0, 3,
                 len1Target});
    f.push_back({"nop", isa::encodeSys(isa::SysFn::Nop, 0), 0, 0, 0});
    f.push_back({"halt", isa::encodeSys(isa::SysFn::Halt, 0), 0, 0, 0});
    f.push_back({"dbgout", isa::encodeSys(isa::SysFn::DbgOut, kRd), 0,
                 0x55, 0});
    return f;
}

/** @p f with r15 in place of rd and/or rs. */
Form
withR15(Form f, bool rd, bool rs)
{
    if (rd)
        f.word = static_cast<std::uint16_t>((f.word & ~0x0f00u) |
                                            (isa::kMsgReg << 8));
    if (rs)
        f.word = static_cast<std::uint16_t>((f.word & ~0x00f0u) |
                                            (isa::kMsgReg << 4));
    if (rd || rs)
        f.name += std::string("_r15") + (rd ? "d" : "") + (rs ? "s" : "");
    return f;
}

/** Everything the two tiers must agree on. */
struct Outcome
{
    sim::Tick haltAt = 0;
    std::array<double, energy::kNumCats> pj{};
    std::vector<sim::ProfileRow> cells;
    std::vector<std::uint16_t> dbg;
    std::vector<std::uint16_t> msgIn;
    core::SnapCore::Stats stats;
};

Outcome
run(const Form &f, const CoreConfig &cfg, FidelityMode tier)
{
    sim::Kernel k;
    Machine m(k, cfg);
    const isa::DecodedInst d = isa::decodeFirst(f.word);
    std::uint16_t at = 0;
    m.imem().poke(at++, f.word);
    if (d.twoWord)
        m.imem().poke(at++, f.imm);
    m.imem().poke(at++, isa::encodeSys(isa::SysFn::Nop, 0));
    m.imem().poke(at++, isa::encodeSys(isa::SysFn::Nop, 0));
    m.imem().poke(at, isa::encodeSys(isa::SysFn::Halt, 0));
    m.dmem().poke(104, 0x4242);

    m.core().setReg(kRd, f.rdVal);
    m.core().setReg(kRs, f.rsVal);
    // r15 reads pop the message-out FIFO in operand order.
    if (d.readsRd && d.rd == isa::kMsgReg)
        m.msgOut().tryPush(f.rdVal);
    if (d.readsRs && d.rs == isa::kMsgReg)
        m.msgOut().tryPush(f.rsVal);
    if (d.op == Op::Event && d.eventFn() == isa::EventFn::Done) {
        m.core().setHandler(isa::EventNum::SensorIrq,
                            static_cast<std::uint16_t>(at - 1));
        m.postEvent(isa::EventNum::SensorIrq);
    }

    m.core().enableProfile(true);
    m.start(tier);
    k.run(k.now() + sim::kMillisecond);
    EXPECT_TRUE(m.core().halted()) << f.name;

    Outcome o;
    o.haltAt = k.now();
    for (std::size_t c = 0; c < energy::kNumCats; ++c)
        o.pj[c] = m.ctx().ledger.pj(static_cast<Cat>(c));
    o.cells = m.core().profileRows();
    o.dbg = m.core().debugOut();
    o.msgIn = m.msgIn().bufferState();
    o.stats = m.core().stats();
    return o;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

struct Config
{
    std::string name;
    CoreConfig cfg;
};

std::vector<Config>
allConfigs()
{
    std::vector<Config> out;
    for (const bool flat : {false, true})
        for (const double volts : {1.8, 0.6})
            for (const bool lowEnergy : {false, true}) {
                CoreConfig c;
                c.flatBus = flat;
                c.volts = volts;
                if (lowEnergy)
                    c = CoreConfig::lowEnergySizing(c);
                out.push_back(
                    {std::string(flat ? "flat" : "split") + "_" +
                         (volts > 1 ? "1v8" : "0v6") +
                         (lowEnergy ? "_lowenergy" : ""),
                     c});
            }
    return out;
}

void
PrintTo(const Config &c, std::ostream *os)
{
    *os << c.name;
}

class InstrCostDrift : public ::testing::TestWithParam<Config>
{};

TEST_P(InstrCostDrift, FastTierMatchesCycleTierFormByForm)
{
    const CoreConfig &cfg = GetParam().cfg;
    int checked = 0;
    for (const Form &plain : allForms()) {
        const isa::DecodedInst d = isa::decodeFirst(plain.word);
        const bool rdOk = d.readsRd || d.writesRd;
        for (const bool rd : {false, true}) {
            for (const bool rs : {false, true}) {
                if ((rd && !rdOk) || (rs && !d.readsRs))
                    continue;
                const Form f = withR15(plain, rd, rs);
                SCOPED_TRACE(f.name);
                const Outcome cyc = run(f, cfg, FidelityMode::Cycle);
                const Outcome fst = run(f, cfg, FidelityMode::Fast);
                EXPECT_EQ(fst.haltAt, cyc.haltAt);
                EXPECT_EQ(fst.dbg, cyc.dbg);
                EXPECT_EQ(fst.msgIn, cyc.msgIn);
                for (std::size_t c = 0; c < energy::kNumCats; ++c)
                    EXPECT_TRUE(near(fst.pj[c], cyc.pj[c]))
                        << energy::catName(static_cast<Cat>(c)) << ": fast "
                        << fst.pj[c] << " cycle " << cyc.pj[c];
                // Retire-to-retire ticks per (pc, handler) cell. The
                // cycle tier books fetch-ahead energy to whichever
                // interval it falls in, so only the cells' sum of
                // energy is comparable.
                ASSERT_EQ(fst.cells.size(), cyc.cells.size());
                double pjCells[2] = {0, 0};
                for (std::size_t i = 0; i < cyc.cells.size(); ++i) {
                    const sim::ProfileRow &a = fst.cells[i];
                    const sim::ProfileRow &b = cyc.cells[i];
                    EXPECT_EQ(a.handler, b.handler);
                    EXPECT_EQ(a.pc, b.pc);
                    EXPECT_EQ(a.count, b.count) << "pc " << b.pc;
                    EXPECT_EQ(a.ticks, b.ticks) << "pc " << b.pc;
                    pjCells[0] += a.pj;
                    pjCells[1] += b.pj;
                }
                EXPECT_TRUE(near(pjCells[0], pjCells[1]))
                    << "fast " << pjCells[0] << " cycle " << pjCells[1];
                EXPECT_EQ(fst.stats.perClass, cyc.stats.perClass);
                EXPECT_EQ(fst.stats.perClassTicks, cyc.stats.perClassTicks);
                EXPECT_EQ(fst.stats.wordsFetched, cyc.stats.wordsFetched);
                EXPECT_EQ(fst.stats.activeTime, cyc.stats.activeTime);
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 100);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, InstrCostDrift, ::testing::ValuesIn(allConfigs()),
    [](const ::testing::TestParamInfo<Config> &info) {
        return info.param.name;
    });

double
pjOf(std::uint16_t word)
{
    sim::Kernel k;
    const core::NodeContext ctx(k);
    return core::instrCost(isa::decodeFirst(word), ctx).pjTotal();
}

TEST(InstrCost, ReproducesTheCalibrationWorkedExamples)
{
    // energy/calibration.hh: a one-word register add is 55 imem +
    // 13 fetch + 6 mem-if + 18 decode + 24 misc + 13 regfile + 10 bus
    // + 16 adder = 155 pJ at 1.8 V.
    EXPECT_DOUBLE_EQ(pjOf(isa::encodeAluR(AluFn::Add, 1, 2)), 155.0);
    // Two-word tier: an immediate form pays one more word of fetch
    // (55 + 13 + 6 = 74 pJ) and one fewer register read (4 pJ).
    EXPECT_DOUBLE_EQ(pjOf(isa::encodeAluI(AluFn::Add, 1)), 225.0);
    // Memory tier: a load adds the DMEM access, still under 300 pJ
    // (Figure 4).
    const double load = pjOf(isa::encodeMem(Op::Ldw, 1, 2));
    EXPECT_GT(load, 225.0);
    EXPECT_LT(load, 300.0);
    // A unary move reads one register, not two; an r15 operand is a
    // message-FIFO word, not a register read.
    EXPECT_DOUBLE_EQ(pjOf(isa::encodeAluR(AluFn::Mov, 1, 2)), 151.0);
    EXPECT_DOUBLE_EQ(pjOf(isa::encodeAluR(AluFn::Mov, 1, isa::kMsgReg)),
                     151.0 - 4.0 + 10.0);
}

TEST(InstrCost, SplitsExecuteTimeAtEveryAccess)
{
    sim::Kernel k;
    const core::NodeContext ctx(k);
    // add r15, r15: two FIFO reads and a FIFO write, no register
    // file traffic; the unit round trip sits between the second read
    // and the write.
    const core::InstrCost c = core::instrCost(
        isa::decodeFirst(
            isa::encodeAluR(AluFn::Add, isa::kMsgReg, isa::kMsgReg)),
        ctx);
    EXPECT_EQ(c.accesses, 3);
    EXPECT_EQ(c.exec[0], ctx.gd(ctx.tcal.decodeGd));
    EXPECT_EQ(c.exec[1], 0u);
    EXPECT_EQ(c.exec[2], 2 * ctx.gd(ctx.tcal.busFastGd) +
                             ctx.gd(ctx.tcal.adderGd));
    EXPECT_EQ(c.exec[3], 0u);
    EXPECT_DOUBLE_EQ(c.pj[std::size_t(Cat::Coproc)],
                     3 * ctx.ecal.msgWordPj);
}

} // namespace
