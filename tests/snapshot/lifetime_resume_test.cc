/**
 * @file
 * Energy-ledger continuity across restore: a run resumed from a
 * mid-way snapshot must end with exactly the from-t=0 ledger — every
 * category, every node, to the picojoule (double bit-equality, since
 * the snapshot carries ledger values as IEEE-754 bits). This is the
 * invariant the checkpoint-aware lifetime estimator example rests on.
 */

#include <string>

#include <gtest/gtest.h>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "snapshot/snapshot.hh"

namespace {

using namespace snaple;

const char *kDutyCycle = R"(
    .equ EV_T0, 0
    .equ EV_SDATA, 5
    .equ CMD_QUERY, 0x9000
boot:
    li   r1, EV_T0
    la   r2, on_t0
    setaddr r1, r2
    li   r1, EV_SDATA
    la   r2, on_data
    setaddr r1, r2
    jmp  rearm
on_t0:
    li   r15, CMD_QUERY
    done
on_data:
    mov  r3, r15
rearm:
    rand r2
    andi r2, 0x07ff
    addi r2, 1500
    li   r1, 0
    schedlo r1, r2
    done
)";

scenario::Scenario
makeScenario()
{
    scenario::Scenario sc;
    sc.name = "lifetime";
    sc.nodes = 2;
    sc.seed = 99;
    sc.durationMs = 100;
    sc.defaults.program = "duty.s";
    sc.defaults.sensor = true;
    // A battery tight enough that leakage + duty cycling matters but
    // no node dies inside the run: the battery check still reads
    // every node's energy at every barrier on both sides of the
    // snapshot.
    sc.defaults.batteryUj = 1e9;
    return sc;
}

scenario::RunResult
run(const scenario::Scenario &sc,
    const snapshot::NetworkSnapshot *from,
    snapshot::NetworkSnapshot *save)
{
    scenario::RunOptions opt;
    opt.jobs = 2;
    opt.loadSource = [](const std::string &) {
        return std::string(kDutyCycle);
    };
    opt.restoreFrom = from;
    if (save) {
        opt.checkpoints.push_back(scenario::Checkpoint{50, ""});
        opt.onCheckpoint = [save](
                               const snapshot::NetworkSnapshot &snap,
                               const scenario::Checkpoint &) {
            *save = snap;
        };
    }
    return scenario::runScenario(sc, opt);
}

TEST(LifetimeResume, ResumedEnergyEqualsStraightRunToThePicojoule)
{
    const scenario::Scenario sc = makeScenario();
    const scenario::RunResult straight = run(sc, nullptr, nullptr);

    snapshot::NetworkSnapshot snap;
    run(sc, nullptr, &snap);
    ASSERT_EQ(snap.nodes.size(), sc.nodes);
    const scenario::RunResult resumed = run(sc, &snap, nullptr);

    ASSERT_EQ(resumed.outcomes.size(), straight.outcomes.size());
    for (std::size_t i = 0; i < straight.outcomes.size(); ++i) {
        // Exact double equality, not near-equality: the ledger is
        // restored bit-for-bit, every post-restore charge replays the
        // identical sequence of additions, and static energy is the
        // same power × ticks product.
        EXPECT_EQ(resumed.outcomes[i].energyPj,
                  straight.outcomes[i].energyPj)
            << straight.outcomes[i].name;
    }
    EXPECT_EQ(resumed.combinedTraceHash, straight.combinedTraceHash);

    // The snapshot's own (dynamic) ledger is a strict partial sum of
    // the end state on every node.
    for (std::size_t i = 0; i < snap.nodes.size(); ++i) {
        double atSnap = 0;
        for (double pj : snap.nodes[i].ledgerPj)
            atSnap += pj;
        EXPECT_GT(atSnap, 0.0);
        EXPECT_LT(atSnap, straight.outcomes[i].energyPj);
    }
}

} // namespace
