/**
 * @file
 * Checked restores: a snapshot records the host knobs that change
 * results after a restore (each node's fidelity, supply volts and
 * profiling flag). Restoring onto a network built with any other
 * value fails with a FatalError that names the node and the
 * knob; restoring with the saving run's knobs still continues
 * bit-exactly (docs/CHECKPOINT.md). Hand-edited records fail the same
 * way: a profile cell outside the profile, or histogram buckets that
 * are not a valid sparse list, naming the instrument.
 */

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "snapshot/snapshot.hh"

namespace {

using namespace snaple;

/** Jittered beacon that listens between transmissions and taps every
 *  received word to dbgout: timers, radio and LFSR stay live across
 *  the checkpoint barrier. */
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
    rand r3
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

constexpr std::uint32_t kNodes = 3;
constexpr double kSaveMs = 10;

/** The knobs of one run; a per-node override applies to one node. */
struct Knobs
{
    bool fast = false;
    bool profile = false;
    double volts = 1.8;
    std::optional<std::uint32_t> node; ///< override target, if any
    std::optional<bool> nodeFast;
    std::optional<double> nodeVolts;
};

scenario::Scenario
makeScenario(const Knobs &k)
{
    scenario::Scenario sc;
    sc.name = "restore_knobs";
    sc.nodes = kNodes;
    sc.seed = 2024;
    sc.durationMs = 30;
    sc.defaults.program = "beacon.s";
    sc.defaults.volts = k.volts;
    sc.defaults.fidelityFast = k.fast;
    if (k.node) {
        scenario::NodeSettings &ns = sc.overrides[*k.node];
        if (k.nodeFast)
            ns.fidelityFast = *k.nodeFast;
        if (k.nodeVolts)
            ns.volts = *k.nodeVolts;
    }
    return sc;
}

scenario::RunOptions
makeOptions(const Knobs &k)
{
    scenario::RunOptions opt;
    opt.profile = k.profile;
    opt.loadSource = [](const std::string &) {
        return std::string(kBeacon);
    };
    return opt;
}

/** Run with @p k and return the snapshot taken at kSaveMs. */
snapshot::NetworkSnapshot
save(const Knobs &k, scenario::RunResult *res = nullptr)
{
    std::optional<snapshot::NetworkSnapshot> snap;
    scenario::RunOptions opt = makeOptions(k);
    opt.checkpoints.push_back(scenario::Checkpoint{kSaveMs, ""});
    opt.onCheckpoint = [&](const snapshot::NetworkSnapshot &s,
                           const scenario::Checkpoint &) { snap = s; };
    scenario::RunResult r = scenario::runScenario(makeScenario(k), opt);
    if (res)
        *res = r;
    EXPECT_TRUE(snap.has_value()) << "no checkpoint taken";
    return snap ? *snap : snapshot::NetworkSnapshot{};
}

/** Restore @p snap onto a network built with @p k. */
scenario::RunResult
restore(const Knobs &k, const snapshot::NetworkSnapshot &snap)
{
    scenario::RunOptions opt = makeOptions(k);
    opt.restoreFrom = &snap;
    return scenario::runScenario(makeScenario(k), opt);
}

/** Restoring @p snap under @p k must fail naming @p node and @p knob. */
void
expectRefused(const Knobs &k, const snapshot::NetworkSnapshot &snap,
              std::uint32_t node, const std::string &knob)
{
    const std::string want =
        "snapshot node n" + std::to_string(node) + ": " + knob + " ";
    try {
        restore(k, snap);
        ADD_FAILURE() << "restore accepted a mismatched " << knob;
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
    }
}

/** rows() without the checkpoint lines. */
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

/** A random supply in the paper's 0.6-1.8 V range. */
double
randomVolts(sim::Rng &rng)
{
    return 0.6 + 1.2 * rng.uniform01();
}

TEST(RestoreKnobs, FidelityMismatchIsRefusedByName)
{
    // Both directions, on every node in turn: the whole network at
    // one tier, one node flipped on restore.
    for (const bool savedFast : {false, true}) {
        Knobs saved;
        saved.fast = savedFast;
        const snapshot::NetworkSnapshot snap = save(saved);
        for (std::uint32_t n = 0; n < kNodes; ++n) {
            Knobs k = saved;
            k.node = n;
            k.nodeFast = !savedFast;
            expectRefused(k, snap, n, "fidelity");
        }
    }
}

TEST(RestoreKnobs, VoltsMismatchIsRefusedByName)
{
    sim::Rng rng(0x7011);
    for (int trial = 0; trial < 4; ++trial) {
        Knobs saved;
        saved.volts = randomVolts(rng);
        const snapshot::NetworkSnapshot snap = save(saved);
        const auto n = static_cast<std::uint32_t>(rng.next() % kNodes);
        Knobs k = saved;
        k.node = n;
        // Alternate a far value with the nearest representable one.
        k.nodeVolts = trial % 2 ? std::nextafter(saved.volts, 2.0)
                                : randomVolts(rng);
        if (*k.nodeVolts == saved.volts)
            k.nodeVolts = std::nextafter(saved.volts, 0.0);
        expectRefused(k, snap, n, "volts");
    }
}

TEST(RestoreKnobs, ProfilingMismatchIsRefusedByName)
{
    // Profiling is network-wide, so the first node is the one named;
    // both directions, at both tiers.
    for (const bool fast : {false, true}) {
        for (const bool savedProfile : {false, true}) {
            Knobs saved;
            saved.fast = fast;
            saved.profile = savedProfile;
            const snapshot::NetworkSnapshot snap = save(saved);
            Knobs k = saved;
            k.profile = !savedProfile;
            expectRefused(k, snap, 0, "profiling");
        }
    }
}

TEST(RestoreKnobs, BadProfileCellsAreRefused)
{
    // A hand-edited snapshot: a cell outside the profile, or a cell on
    // a core that does not profile, must not be written anywhere.
    for (const bool profile : {true, false}) {
        Knobs k;
        k.profile = profile;
        snapshot::NetworkSnapshot snap = save(k);
        core::SnapCore::ProfileCell cell;
        cell.count = 1;
        cell.pc = profile ? 0xffff : 0;
        snap.nodes[1].core.profile.push_back(cell);
        try {
            restore(k, snap);
            ADD_FAILURE() << "restore accepted a bad profile cell";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("bad profile cell"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(RestoreKnobs, BadHistogramBucketsAreRefusedByName)
{
    // Each edit is encoded, so the file carries a valid checksum and
    // only restore's bucket check can refuse it.
    const snapshot::NetworkSnapshot saved = save(Knobs{});
    std::size_t hist = 0;
    const auto &metrics = saved.nodes[1].metrics;
    while (hist < metrics.size() && metrics[hist].histCount == 0)
        ++hist;
    ASSERT_LT(hist, metrics.size()) << "no recorded histogram";
    const std::string name = metrics[hist].name;
    using Sparse = sim::MetricHistogram::Sparse;
    const std::pair<std::uint64_t, Sparse> edits[] = {
        {1, {{65, 1}}},         // index past the 65 buckets
        {2, {{4, 1}, {4, 1}}},  // repeated index
        {2, {{5, 1}, {4, 1}}},  // descending
        {1, {{4, 0}, {5, 1}}},  // zero count
        {2, {{4, 1}}},          // counts short of the histogram's
    };
    for (const auto &[count, buckets] : edits) {
        snapshot::NetworkSnapshot edited = saved;
        edited.nodes[1].metrics[hist].histCount = count;
        edited.nodes[1].metrics[hist].buckets = buckets;
        const snapshot::NetworkSnapshot snap =
            snapshot::decodeSnapshot(snapshot::encodeSnapshot(edited));
        try {
            restore(Knobs{}, snap);
            ADD_FAILURE() << "restore accepted bad buckets";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(name),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(RestoreKnobs, MatchingKnobsContinueBitExactly)
{
    sim::Rng rng(0x5a7e);
    for (int trial = 0; trial < 3; ++trial) {
        Knobs k;
        k.fast = trial == 1;
        k.profile = trial != 1;
        k.volts = randomVolts(rng);
        k.node = static_cast<std::uint32_t>(rng.next() % kNodes);
        k.nodeFast = trial != 0;
        k.nodeVolts = randomVolts(rng);
        scenario::RunResult straight;
        const snapshot::NetworkSnapshot snap = save(k, &straight);
        EXPECT_EQ(nodeRows(restore(k, snap)), nodeRows(straight));
    }
}

} // namespace
