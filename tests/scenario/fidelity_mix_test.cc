/**
 * @file
 * Mixed-fidelity determinism: a scenario whose nodes run at different
 * fidelity tiers (fast nodes on the predecoded core,
 * cycle nodes on the CHP core) must stay bit-identical across any
 * --jobs count, because both tiers meet at the same AirExchange
 * barriers. Also pins the `snap-run --fidelity` host override
 * semantics against per-node stanzas.
 */

#include <cstdint>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace {

using namespace snaple;

/** A jittered beacon that keeps the radio and timers busy. */
const char *kBeacon = R"(
    .equ EV_T0, 0
    .equ EV_RX, 3
    .equ CMD_RX, 0x8001
    .equ CMD_TX, 0x8002
boot:
    li   r1, EV_T0
    la   r2, on_t0
    setaddr r1, r2
    li   r1, EV_RX
    la   r2, on_rx
    setaddr r1, r2
    li   r15, CMD_RX
    jmp  rearm
on_t0:
    li   r15, CMD_TX
    rand r3
    mov  r15, r3
rearm:
    rand r2
    andi r2, 0x0fff
    addi r2, 2000
    li   r1, 0
    schedlo r1, r2
    done
on_rx:
    mov  r3, r15
    dbgout r3
    done
)";

scenario::Scenario
mixedScenario()
{
    scenario::Scenario sc;
    sc.name = "fidelity_mix";
    sc.nodes = 6;
    sc.seed = 4242;
    sc.durationMs = 40;
    sc.defaults.program = "beacon.s";
    // Alternate tiers so every radio exchange crosses the boundary.
    for (std::uint32_t i = 0; i < sc.nodes; ++i)
        sc.overrides[i].fidelityFast = (i % 2) == 0;
    return sc;
}

scenario::RunResult
run(const scenario::Scenario &sc, unsigned jobs,
    std::optional<bool> hostFidelity = std::nullopt)
{
    scenario::RunOptions opt;
    opt.jobs = jobs;
    opt.fidelityFast = hostFidelity;
    opt.loadSource = [](const std::string &) {
        return std::string(kBeacon);
    };
    return scenario::runScenario(sc, opt);
}

TEST(FidelityMix, MixedTiersAreBitIdenticalAcrossJobs)
{
    const scenario::Scenario sc = mixedScenario();
    const scenario::RunResult j1 = run(sc, 1);
    const scenario::RunResult j2 = run(sc, 2);
    const scenario::RunResult j4 = run(sc, 4);
    EXPECT_EQ(j1.rows(), j2.rows());
    EXPECT_EQ(j1.rows(), j4.rows());
    EXPECT_EQ(j1.combinedTraceHash, j2.combinedTraceHash);
    EXPECT_EQ(j1.combinedTraceHash, j4.combinedTraceHash);
}

TEST(FidelityMix, TiersInteroperateOverTheSharedAir)
{
    // on_rx taps every received beacon word to dbgout: with the tiers
    // alternating on a full topology, every node — fast and cycle
    // alike — must hear beacons from peers across the tier boundary.
    const scenario::RunResult r = run(mixedScenario(), 2);
    EXPECT_GT(r.air.wordsSent, 0u);
    EXPECT_GT(r.air.wordsDelivered, 0u);
    for (const scenario::NodeOutcome &o : r.outcomes) {
        EXPECT_FALSE(o.dead) << o.name;
        EXPECT_FALSE(o.dbgOut.empty())
            << o.name << " heard no beacons from its peers";
    }
}

TEST(FidelityMix, HostOverrideBeatsPerNodeStanzas)
{
    // `snap-run --fidelity fast` forces every node fast regardless of
    // the per-node stanzas: the result must equal a scenario whose
    // stanzas all say fast.
    const scenario::Scenario mixed = mixedScenario();
    scenario::Scenario allFast = mixedScenario();
    for (std::uint32_t i = 0; i < allFast.nodes; ++i)
        allFast.overrides[i].fidelityFast = true;

    const scenario::RunResult forced = run(mixed, 2, true);
    const scenario::RunResult stanza = run(allFast, 2);
    EXPECT_EQ(forced.rows(), stanza.rows());
    EXPECT_EQ(forced.combinedTraceHash, stanza.combinedTraceHash);

    // And the override genuinely changes behaviour vs the mixed run
    // (fast timing shifts the beacon interleave).
    const scenario::RunResult plain = run(mixed, 2);
    EXPECT_NE(forced.combinedTraceHash, plain.combinedTraceHash);
}

} // namespace
