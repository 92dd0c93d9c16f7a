/**
 * @file
 * Tests for power/lifetime arithmetic, SRAM bank accounting, and the
 * self-powered-radio option.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "mem/sram.hh"
#include "net/parallel_network.hh"
#include "node/power.hh"
#include "apps/apps.hh"
#include "asm/snap_backend.hh"

namespace {

using namespace snaple;

TEST(PowerMathTest, AveragePowerUnits)
{
    // 1000 pJ over 1 second = 1 nW.
    EXPECT_DOUBLE_EQ(node::averagePowerNw(1000.0, sim::kSecond), 1.0);
    // 1 pJ over 1 us = 1 uW = 1000 nW.
    EXPECT_DOUBLE_EQ(node::averagePowerNw(1.0, sim::kMicrosecond),
                     1000.0);
    EXPECT_DOUBLE_EQ(node::averagePowerW(1000.0, sim::kSecond), 1e-9);
    EXPECT_DOUBLE_EQ(node::averagePowerNw(5.0, 0), 0.0);
}

TEST(PowerMathTest, LifetimeArithmetic)
{
    // 86400 J at 1 W = 1 day.
    EXPECT_DOUBLE_EQ(node::lifetimeDays(86400.0, 1.0), 1.0);
    // A floor adds to the drain.
    EXPECT_DOUBLE_EQ(node::lifetimeDays(86400.0, 0.5, 0.5), 1.0);
    EXPECT_TRUE(std::isinf(node::lifetimeDays(100.0, 0.0)));
    // Battery constants are in plausible ranges.
    EXPECT_NEAR(node::kCoinCellJoules, 2430.0, 1.0);
    EXPECT_NEAR(node::kTwoAaJoules, 27000.0, 1.0);
}

TEST(SramTest, TimedAccessesChargeTheRightBank)
{
    sim::Kernel k;
    core::NodeContext ctx(k);
    mem::Sram imem(ctx, mem::Bank::Imem);
    mem::Sram dmem(ctx, mem::Bank::Dmem);
    k.spawn([](mem::Sram &i, mem::Sram &d) -> sim::Co<void> {
        co_await i.write(5, 0xAA);
        (void)co_await i.read(5);
        co_await d.write(9, 0xBB);
        (void)co_await d.read(9);
    }(imem, dmem));
    k.run();
    energy::EnergyCal cal;
    EXPECT_DOUBLE_EQ(ctx.ledger.pj(energy::Cat::Imem),
                     cal.imemReadPj + cal.imemWritePj);
    EXPECT_DOUBLE_EQ(ctx.ledger.pj(energy::Cat::Dmem),
                     cal.dmemReadPj + cal.dmemWritePj);
    EXPECT_EQ(imem.peek(5), 0xAA);
    EXPECT_EQ(dmem.peek(9), 0xBB);
    // The accesses took simulated time.
    EXPECT_GT(k.now(), 0u);
}

TEST(SramTest, PeekPokeAreFree)
{
    sim::Kernel k;
    core::NodeContext ctx(k);
    mem::Sram dmem(ctx, mem::Bank::Dmem);
    dmem.poke(100, 42);
    EXPECT_EQ(dmem.peek(100), 42);
    EXPECT_DOUBLE_EQ(ctx.ledger.totalPj(), 0.0);
    EXPECT_THROW(dmem.poke(5000, 1), sim::FatalError);
}

TEST(SramTest, OversizedImageRejected)
{
    sim::Kernel k;
    core::NodeContext ctx(k);
    mem::Sram imem(ctx, mem::Bank::Imem, 16);
    std::vector<std::uint16_t> image(17, 0);
    EXPECT_THROW(imem.load(image), sim::FatalError);
}

TEST(SelfPoweredRadioTest, NoRadioEnergyCharged)
{
    auto run_tx = [](bool self_powered) {
        net::ParallelNetwork net;
        node::NodeConfig cfg;
        cfg.name = "tx";
        cfg.core.stopOnHalt = false;
        cfg.radio.selfPowered = self_powered;
        auto &n = net.addNode(
            cfg, assembler::assembleSnap(apps::senderNodeProgram(
                     1, 2, {1, 2, 3}, /*delay_ms=*/5)));
        net.start();
        net.runFor(300 * sim::kMillisecond);
        return n.ctx().ledger.pj(energy::Cat::Radio);
    };
    EXPECT_GT(run_tx(false), 1e6); // tens of uJ on the battery
    EXPECT_DOUBLE_EQ(run_tx(true), 0.0);
}

} // namespace
