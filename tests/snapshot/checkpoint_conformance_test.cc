/**
 * @file
 * Checkpoint/restore conformance: for every fidelity tier (cycle,
 * fast, mixed) and jobs count (1, 2, 4), a run that saves a snapshot
 * mid-way and a fresh run restored from it must both be byte-identical
 * to the uninterrupted run — trace hashes, canonical rows, and the
 * periodic metrics stream (the restored stream continues the saved
 * one's cadence without re-emitting the meta header) and the
 * flow-span stream (the restored stream is the straight run's exact
 * byte suffix). Snapshots are
 * taken mid-fault-schedule (faults before and after the barrier) and,
 * across the matrix, with words mid-flight on the air; snapshot bytes
 * themselves are jobs-invariant and re-checkpointing after a restore
 * reproduces the original run's second snapshot byte-for-byte.
 */

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "snapshot/snapshot.hh"

namespace {

using namespace snaple;

/** Duty-cycled sense-and-beacon node: a jittered timer queries the
 *  temperature sensor, beacons the reading, and taps every received
 *  word to dbgout — keeping timers, sensor RNG, radio, LFSR and
 *  metrics all live across any checkpoint barrier. */
const char *kSenseBeacon = R"(
    .equ EV_T0, 0
    .equ EV_RX, 3
    .equ EV_SDATA, 5
    .equ CMD_RX, 0x8001
    .equ CMD_TX, 0x8002
    .equ CMD_QUERY, 0x9000
boot:
    li   r1, EV_T0
    la   r2, on_t0
    setaddr r1, r2
    li   r1, EV_RX
    la   r2, on_rx
    setaddr r1, r2
    li   r1, EV_SDATA
    la   r2, on_data
    setaddr r1, r2
    li   r15, CMD_RX
    jmp  rearm
on_t0:
    li   r15, CMD_QUERY
    done
on_data:
    mov  r3, r15
    li   r15, CMD_TX
    mov  r15, r3
    jmp  rearm
on_rx:
    mov  r3, r15
    dbgout r3
    done
rearm:
    rand r2
    andi r2, 0x0fff
    addi r2, 2000
    li   r1, 0
    schedlo r1, r2
    done
)";

enum class Tier
{
    Cycle,
    Fast,
    Mixed
};

scenario::Scenario
makeScenario(Tier tier)
{
    scenario::Scenario sc;
    sc.name = "conformance";
    sc.nodes = 4;
    sc.seed = 777;
    sc.durationMs = 60;
    sc.metricsMs = 10;
    sc.flowWindowMs = 8; // beacons rearm every 2-6 ms: links hops
    sc.defaults.program = "sense_beacon.s";
    sc.defaults.sensor = true;
    for (std::uint32_t i = 0; i < sc.nodes; ++i)
        sc.overrides[i].fidelityFast =
            tier == Tier::Fast ||
            (tier == Tier::Mixed && (i % 2) == 0);

    // Faults on both sides of the snapshot barriers (T1 = 20 ms,
    // T2 = 40 ms): the snapshot must carry the link flap's effect and
    // the restored run must replay the tail kill identically.
    scenario::Fault flap;
    flap.kind = scenario::Fault::Kind::LinkDown;
    flap.atMs = 12;
    flap.a = 0;
    flap.b = 1;
    sc.faults.push_back(flap);
    scenario::Fault up = flap;
    up.kind = scenario::Fault::Kind::LinkUp;
    up.atMs = 30;
    sc.faults.push_back(up);
    scenario::Fault kill;
    kill.kind = scenario::Fault::Kind::Kill;
    kill.atMs = 50;
    kill.a = 3;
    kill.b = 0;
    sc.faults.push_back(kill);
    return sc;
}

constexpr double kT1 = 20;
constexpr double kT2 = 40;

struct Captured
{
    scenario::RunResult res;
    std::string metrics;                    ///< the whole stream
    std::string flows;                      ///< flow-span stream
    std::map<double, std::string> snapBytes;///< requestedMs -> bytes
    std::map<double, std::size_t> metricsAt;///< stream size at hook
    std::map<double, std::size_t> flowsAt;  ///< span bytes at hook
};

/** One run; when @p checkpoints is non-empty every snapshot's encoded
 *  bytes and the metrics-stream length at its barrier are captured.
 *  @p profile turns on every core's per-PC flat profile. */
Captured
run(const scenario::Scenario &sc, unsigned jobs,
    std::vector<double> checkpoints = {},
    const snapshot::NetworkSnapshot *restoreFrom = nullptr,
    bool profile = false)
{
    std::ostringstream metrics;
    std::ostringstream flows;
    Captured cap;
    scenario::RunOptions opt;
    opt.jobs = jobs;
    opt.profile = profile;
    opt.metricsOut = &metrics;
    opt.flowsOut = &flows;
    opt.loadSource = [](const std::string &) {
        return std::string(kSenseBeacon);
    };
    for (double t : checkpoints)
        opt.checkpoints.push_back(scenario::Checkpoint{t, ""});
    opt.restoreFrom = restoreFrom;
    opt.onCheckpoint = [&](const snapshot::NetworkSnapshot &snap,
                           const scenario::Checkpoint &ck) {
        cap.snapBytes[ck.atMs] = snapshot::encodeSnapshot(snap);
        cap.metricsAt[ck.atMs] = metrics.str().size();
        cap.flowsAt[ck.atMs] = flows.str().size();
    };
    cap.res = scenario::runScenario(sc, opt);
    cap.metrics = metrics.str();
    cap.flows = flows.str();
    return cap;
}

/** rows() with the `checkpoint=` lines dropped, for comparing runs
 *  that took different snapshots. */
std::string
nodeRows(const scenario::RunResult &res)
{
    std::istringstream in(res.rows());
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("checkpoint=", 0) != 0)
            out << line << "\n";
    return out.str();
}

/** The end-of-run `profile` lines of a metrics stream. */
std::string
profileRows(const std::string &metrics)
{
    std::istringstream in(metrics);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("{\"kind\":\"profile\"", 0) == 0)
            out << line << "\n";
    return out.str();
}

class ConformanceTest
    : public ::testing::TestWithParam<std::tuple<Tier, unsigned>>
{};

TEST_P(ConformanceTest, SaveRestoreContinueIsByteIdentical)
{
    const auto [tier, jobs] = GetParam();
    const scenario::Scenario sc = makeScenario(tier);

    const Captured straight = run(sc, jobs);
    Captured saved = run(sc, jobs, {kT1, kT2});

    // Taking snapshots must not perturb the run at all.
    EXPECT_EQ(nodeRows(saved.res), nodeRows(straight.res));
    EXPECT_EQ(saved.res.combinedTraceHash,
              straight.res.combinedTraceHash);
    EXPECT_EQ(saved.metrics, straight.metrics);
    EXPECT_EQ(saved.flows, straight.flows);
    EXPECT_FALSE(straight.flows.empty());
    // The stream carries the energest duty gauges the restore must
    // continue (their values are pinned by the byte equality above).
    EXPECT_NE(straight.metrics.find("energest.radio_tx_ticks"),
              std::string::npos);
    ASSERT_EQ(saved.res.checkpoints.size(), 2u);

    // Restore at T1 and continue: everything from the barrier on —
    // node rows, trace hashes, T2 re-checkpoint bytes, the metrics
    // stream tail — must equal the uninterrupted run's byte-for-byte.
    const snapshot::NetworkSnapshot at1 =
        snapshot::decodeSnapshot(saved.snapBytes.at(kT1));
    Captured resumed = run(sc, jobs, {kT2}, &at1);
    EXPECT_EQ(nodeRows(resumed.res), nodeRows(straight.res));
    EXPECT_EQ(resumed.res.combinedTraceHash,
              straight.res.combinedTraceHash);
    ASSERT_EQ(resumed.res.checkpoints.size(), 1u);
    EXPECT_EQ(resumed.res.checkpoints[0].trace,
              saved.res.checkpoints[1].trace);
    EXPECT_EQ(resumed.snapBytes.at(kT2), saved.snapBytes.at(kT2));

    const std::string prefix =
        saved.metrics.substr(0, saved.metricsAt.at(kT1));
    EXPECT_EQ(prefix + resumed.metrics, straight.metrics);

    // The flow-span stream restarts as the straight run's exact byte
    // suffix: flow ids, hop attribution and causality context all
    // ride the snapshot.
    const std::string flowPrefix =
        saved.flows.substr(0, saved.flowsAt.at(kT1));
    EXPECT_EQ(flowPrefix + resumed.flows, straight.flows);
}

TEST_P(ConformanceTest, ProfiledSaveRestoreContinueKeepsProfileRows)
{
    // The per-PC flat profile rides the snapshot: a profiled run
    // checkpoints, and the restored run ends with the straight run's
    // profile rows, byte for byte.
    const auto [tier, jobs] = GetParam();
    const scenario::Scenario sc = makeScenario(tier);

    const Captured straight = run(sc, jobs, {}, nullptr, true);
    const Captured saved = run(sc, jobs, {kT1, kT2}, nullptr, true);
    EXPECT_EQ(saved.metrics, straight.metrics);
    // Both tiers fill the profile.
    const std::string rows = profileRows(straight.metrics);
    EXPECT_FALSE(rows.empty());

    const snapshot::NetworkSnapshot at1 =
        snapshot::decodeSnapshot(saved.snapBytes.at(kT1));
    const Captured resumed = run(sc, jobs, {kT2}, &at1, true);
    EXPECT_EQ(nodeRows(resumed.res), nodeRows(straight.res));
    EXPECT_EQ(resumed.snapBytes.at(kT2), saved.snapBytes.at(kT2));
    EXPECT_EQ(profileRows(resumed.metrics), rows);
    const std::string prefix =
        saved.metrics.substr(0, saved.metricsAt.at(kT1));
    EXPECT_EQ(prefix + resumed.metrics, straight.metrics);
}

TEST_P(ConformanceTest, SnapshotBytesAreJobsInvariant)
{
    const auto [tier, jobs] = GetParam();
    const scenario::Scenario sc = makeScenario(tier);
    const Captured base = run(sc, 1, {kT1});
    if (jobs == 1)
        return; // nothing to compare against itself
    const Captured other = run(sc, jobs, {kT1});
    EXPECT_EQ(base.snapBytes.at(kT1), other.snapBytes.at(kT1));
}

TEST_P(ConformanceTest, RestoreCrossesJobsCounts)
{
    // A snapshot saved under --jobs J restores under jobs 1 and back:
    // shard assignment is scheduling, not state.
    const auto [tier, jobs] = GetParam();
    const scenario::Scenario sc = makeScenario(tier);
    const Captured straight = run(sc, 1);
    const Captured saved = run(sc, jobs, {kT1});
    const snapshot::NetworkSnapshot snap =
        snapshot::decodeSnapshot(saved.snapBytes.at(kT1));
    const Captured onJ1 = run(sc, 1, {}, &snap);
    const Captured onJ4 = run(sc, 4, {}, &snap);
    EXPECT_EQ(nodeRows(onJ1.res), nodeRows(straight.res));
    EXPECT_EQ(nodeRows(onJ4.res), nodeRows(straight.res));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConformanceTest,
    ::testing::Combine(::testing::Values(Tier::Cycle, Tier::Fast,
                                         Tier::Mixed),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto &info) {
        const char *tier =
            std::get<0>(info.param) == Tier::Cycle  ? "Cycle"
            : std::get<0>(info.param) == Tier::Fast ? "Fast"
                                                    : "Mixed";
        return std::string(tier) + "Jobs" +
               std::to_string(std::get<1>(info.param));
    });

TEST(CheckpointConformance, CapturesWordsMidFlight)
{
    // With four beaconing nodes the air is busy; across a handful of
    // checkpoint barriers at least one snapshot must carry in-flight
    // words or armed carrier/delivery mirrors — the state that makes
    // mid-flight restore interesting.
    const scenario::Scenario sc = makeScenario(Tier::Cycle);
    const Captured saved = run(sc, 2, {10, 20, 30, 40, 50});
    bool midAir = false;
    for (const auto &[ms, bytes] : saved.snapBytes) {
        const snapshot::NetworkSnapshot snap =
            snapshot::decodeSnapshot(bytes);
        if (!snap.air.pending.empty())
            midAir = true;
        for (const snapshot::NodeState &ns : snap.nodes)
            if (!ns.medium.ownEnds.empty() ||
                !ns.medium.remoteEnds.empty() ||
                !ns.medium.offers.empty())
                midAir = true;
    }
    EXPECT_TRUE(midAir) << "no snapshot caught the radio mid-word";
}

TEST(CheckpointConformance, RestoredRunSkipsMetricsMetaHeader)
{
    const scenario::Scenario sc = makeScenario(Tier::Cycle);
    const Captured saved = run(sc, 2, {kT1});
    const snapshot::NetworkSnapshot snap =
        snapshot::decodeSnapshot(saved.snapBytes.at(kT1));
    EXPECT_TRUE(snap.metricsMetaWritten);
    const Captured resumed = run(sc, 2, {}, &snap);
    // The continuation stream must start with a sample row, not a
    // second copy of the meta/header block.
    EXPECT_EQ(resumed.metrics.find("\"meta\""), std::string::npos);
}

TEST(CheckpointConformance, SnapshotFileRoundTripsThroughDisk)
{
    const scenario::Scenario sc = makeScenario(Tier::Mixed);
    const Captured saved = run(sc, 2, {kT1});
    const std::string path =
        ::testing::TempDir() + "/conformance_t1.snap";
    const snapshot::NetworkSnapshot snap =
        snapshot::decodeSnapshot(saved.snapBytes.at(kT1));
    snapshot::writeSnapshotFile(snap, path);
    const snapshot::NetworkSnapshot back =
        snapshot::readSnapshotFile(path);
    EXPECT_EQ(snapshot::encodeSnapshot(back),
              saved.snapBytes.at(kT1));
}

} // namespace
