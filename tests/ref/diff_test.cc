/**
 * @file
 * Tests for the differential co-simulation harness: per-class and
 * mixed random sweeps must agree at both core fidelities, every seeded
 * reference mutation must be caught on either side with a usable
 * report, and the commit streams of both executors must carry
 * event-dispatch records.
 */

#include <gtest/gtest.h>

#include <string>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "ref/commit_log.hh"
#include "ref/diff.hh"
#include "ref/progen.hh"
#include "ref/ref_machine.hh"
#include "sim/kernel.hh"
#include "sim/rng.hh"

namespace {

using namespace snaple;

class DiffClassSweep : public ::testing::TestWithParam<ref::ProgClass>
{};

TEST_P(DiffClassSweep, TwentySeedsAgree)
{
    ref::DiffConfig cfg;
    cfg.anyClass = false;
    cfg.cls = GetParam();
    for (std::uint64_t i = 0; i < 20; ++i) {
        const std::uint64_t seed = sim::deriveSeed(0xD1FF, i);
        ref::DiffOutcome out = ref::diffOne(seed, cfg);
        ASSERT_TRUE(out.ok) << out.report;
        EXPECT_GT(out.coreRecords, 0u);
        EXPECT_EQ(out.coreRecords, out.refRecords);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, DiffClassSweep,
    ::testing::Values(ref::ProgClass::Alu, ref::ProgClass::Memory,
                      ref::ProgClass::Control, ref::ProgClass::MsgIo,
                      ref::ProgClass::TimerEvent, ref::ProgClass::Smc),
    [](const auto &info) {
        return std::string(ref::className(info.param));
    });

TEST(DiffTest, MixedSweepAgrees)
{
    ref::DiffConfig cfg; // default: class picked from each seed
    for (std::uint64_t i = 0; i < 100; ++i) {
        const std::uint64_t seed = sim::deriveSeed(0x5EED, i);
        ref::DiffOutcome out = ref::diffOne(seed, cfg);
        ASSERT_TRUE(out.ok) << out.report;
    }
}

/** The fast tier, as production runs it (live FIFOs, stall/replay,
 *  the timer port), must survive the same per-class sweep the cycle
 *  core does — including the self-modifying-code class, which
 *  exercises predecoded-line invalidation on `sti`. */
class FastTierClassSweep : public ::testing::TestWithParam<ref::ProgClass>
{};

TEST_P(FastTierClassSweep, TwentySeedsAgree)
{
    ref::DiffConfig cfg;
    cfg.fidelity = core::FidelityMode::Fast;
    cfg.anyClass = false;
    cfg.cls = GetParam();
    for (std::uint64_t i = 0; i < 20; ++i) {
        const std::uint64_t seed = sim::deriveSeed(0xFA57, i);
        ref::DiffOutcome out = ref::diffOne(seed, cfg);
        ASSERT_TRUE(out.ok) << out.report;
        EXPECT_GT(out.coreRecords, 0u);
        EXPECT_EQ(out.coreRecords, out.refRecords);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, FastTierClassSweep,
    ::testing::Values(ref::ProgClass::Alu, ref::ProgClass::Memory,
                      ref::ProgClass::Control, ref::ProgClass::MsgIo,
                      ref::ProgClass::TimerEvent, ref::ProgClass::Smc),
    [](const auto &info) {
        return std::string(ref::className(info.param));
    });

/** Find the first seed a mutated reference diverges on, if any. */
std::uint64_t
firstDivergingSeed(unsigned mutation, ref::DiffOutcome *out,
                   core::FidelityMode fidelity = core::FidelityMode::Cycle)
{
    ref::DiffConfig cfg;
    cfg.mutation = mutation;
    cfg.fidelity = fidelity;
    for (std::uint64_t i = 0; i < 60; ++i) {
        const std::uint64_t seed = sim::deriveSeed(0xB06, i);
        *out = ref::diffOne(seed, cfg);
        if (!out->ok)
            return seed;
    }
    return 0;
}

TEST(DiffTest, EverySeededMutationIsCaught)
{
    for (unsigned m = 1; m <= 7; ++m) {
        ref::DiffOutcome out;
        const std::uint64_t seed = firstDivergingSeed(m, &out);
        ASSERT_NE(seed, 0u)
            << "mutation " << m << " survived 60 random programs";
        EXPECT_TRUE(out.divergence) << "mutation " << m;
        // The report must be self-contained: what diverged, where, and
        // how to re-run it.
        EXPECT_NE(out.report.find("repro: snap-diff --replay"),
                  std::string::npos)
            << out.report;
        EXPECT_NE(out.report.find("--mutation " + std::to_string(m)),
                  std::string::npos)
            << out.report;
        EXPECT_NE(out.report.find("listing around pc"),
                  std::string::npos)
            << out.report;
    }
}

/** The seeded bugs live in the classic reference only, so the harness
 *  must catch each of them against the fast tier too, and the repro
 *  line must re-run the fast tier. */
TEST(DiffTest, EverySeededMutationIsCaughtAtFastFidelity)
{
    for (unsigned m = 1; m <= 7; ++m) {
        ref::DiffOutcome out;
        const std::uint64_t seed =
            firstDivergingSeed(m, &out, core::FidelityMode::Fast);
        ASSERT_NE(seed, 0u)
            << "mutation " << m << " survived 60 random programs";
        EXPECT_TRUE(out.divergence) << "mutation " << m;
        EXPECT_NE(out.report.find("--mutation " + std::to_string(m) +
                                  " --fidelity fast"),
                  std::string::npos)
            << out.report;
    }
}

TEST(DiffTest, DivergenceReportsAreDeterministic)
{
    ref::DiffOutcome first;
    const std::uint64_t seed = firstDivergingSeed(2, &first);
    ASSERT_NE(seed, 0u);
    ref::DiffConfig cfg;
    cfg.mutation = 2;
    ref::DiffOutcome second = ref::diffOne(seed, cfg);
    EXPECT_EQ(first.report, second.report);
}

TEST(DiffTest, HarnessFailureIsNotADivergence)
{
    // A mutation id the reference does not implement behaves like a
    // faithful reference; the sweep must still pass (guards against
    // accidentally treating unknown ids as bugs).
    ref::DiffConfig cfg;
    cfg.mutation = 99;
    ref::DiffOutcome out = ref::diffOne(sim::deriveSeed(0xB06, 0), cfg);
    EXPECT_TRUE(out.ok) << out.report;
}

TEST(DiffTest, OversizedProgramIsAHarnessFailure)
{
    // More blocks than the 2K-word IMEM holds: a clean report, not an
    // uncaught FatalError out of the loader.
    ref::DiffConfig cfg;
    cfg.anyClass = false;
    cfg.cls = ref::ProgClass::Control;
    cfg.gen.blocks = 1024;
    ref::DiffOutcome out = ref::diffOne(sim::deriveSeed(0xB06, 0), cfg);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.divergence);
    EXPECT_NE(out.report.find("does not fit"), std::string::npos)
        << out.report;
    EXPECT_NE(out.report.find("--blocks 1024"), std::string::npos)
        << out.report;
}

/**
 * Both executors must represent handler dispatch identically: run a
 * fixed event-driven program on each and compare streams by hand
 * (independent of diffOne's own bookkeeping).
 */
TEST(DiffTest, DispatchRecordsMatchOnFixedProgram)
{
    const char *src = R"(
        li r1, 7
        li r10, handler0
        li r11, 0
        setaddr r11, r10
        done
    handler0:
        add r1, r1
        dbgout r1
        halt
    )";
    assembler::Program prog = assembler::assembleSnap(src, "fixed");

    sim::Kernel kernel;
    core::Machine machine(kernel);
    machine.load(prog);
    ref::CommitSink coreSink;
    machine.core().setCommitSink(&coreSink);
    machine.start();
    ASSERT_TRUE(machine.postEvent(isa::EventNum::Timer0));
    kernel.run(sim::fromMs(10));
    ASSERT_TRUE(machine.core().halted());

    ref::RefMachine refm(prog);
    ref::Injection inj;
    inj.events.push_back(0);
    ref::CommitSink refSink;
    EXPECT_EQ(refm.run(inj, refSink), ref::RefMachine::Stop::Halt);

    ASSERT_EQ(coreSink.size(), refSink.size());
    std::size_t dispatches = 0;
    for (std::size_t i = 0; i < coreSink.size(); ++i) {
        EXPECT_EQ(coreSink.log()[i], refSink.log()[i]) << "record " << i;
        if (coreSink.log()[i].kind == ref::CommitKind::Dispatch)
            ++dispatches;
    }
    EXPECT_EQ(dispatches, 1u);
    EXPECT_EQ(machine.core().debugOut(), refm.dbg());
    EXPECT_EQ(machine.core().reg(1), 14);
}

/** Timer-class random programs must actually exercise dispatch. */
TEST(DiffTest, TimerProgramsEmitDispatchRecords)
{
    sim::Rng rng(sim::deriveSeed(0x71AE, 3));
    ref::GenProgram gp =
        ref::generate(rng, ref::ProgClass::TimerEvent, {});
    assembler::Program prog = assembler::assembleSnap(gp.source, "gen");

    sim::Kernel kernel;
    core::Machine machine(kernel);
    machine.load(prog);
    ref::CommitSink sink;
    machine.core().setCommitSink(&sink);
    machine.start();
    kernel.run(sim::fromMs(500));
    ASSERT_TRUE(machine.core().halted()) << gp.source;

    std::size_t dispatches = 0;
    bool timerCmds = false;
    for (const ref::CommitRecord &r : sink.log()) {
        if (r.kind == ref::CommitKind::Dispatch)
            ++dispatches;
        timerCmds = timerCmds || r.timerCmd;
    }
    EXPECT_GT(dispatches, 0u) << gp.source;
    EXPECT_TRUE(timerCmds) << gp.source;
}

} // namespace
