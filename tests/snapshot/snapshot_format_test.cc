/**
 * @file
 * Wire-format pin: the encoded bytes of shipped scenarios checkpointed
 * at 400 ms must keep the exact length and sim::fnv1a64 recorded
 * here. Every other snapshot test compares bytes within one build;
 * this one notices a format change between builds. A deliberate
 * schema change bumps snapshot::kFormatVersion and re-records these
 * constants in the same change (docs/CHECKPOINT.md).
 */

#include <cstdint>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/hash.hh"
#include "snapshot/snapshot.hh"

namespace {

using namespace snaple;

struct Pin
{
    const char *scenario;
    std::size_t bytes;
    std::uint64_t fnv;
};

void
PrintTo(const Pin &p, std::ostream *os)
{
    *os << p.scenario;
}

class SnapshotFormat : public ::testing::TestWithParam<Pin>
{};

TEST_P(SnapshotFormat, EncodingAt400MsMatchesThePin)
{
    const Pin pin = GetParam();
    const std::string root = SNAPLE_SOURCE_DIR;
    const scenario::Scenario sc = scenario::loadScenario(
        root + "/examples/scenarios/" + pin.scenario + ".scn");

    std::string enc;
    scenario::RunOptions opt;
    opt.checkpoints.push_back(scenario::Checkpoint{400, ""});
    opt.onCheckpoint = [&](const snapshot::NetworkSnapshot &snap,
                           const scenario::Checkpoint &ck) {
        if (ck.atMs == 400)
            enc = snapshot::encodeSnapshot(snap);
    };
    scenario::runScenario(sc, opt);

    ASSERT_FALSE(enc.empty()) << "no checkpoint at 400 ms";
    EXPECT_EQ(snapshot::kFormatVersion, 8u);
    EXPECT_EQ(enc.size(), pin.bytes);
    EXPECT_EQ(sim::fnv1a64(enc.data(), enc.size()), pin.fnv)
        << std::hex << "actual 0x" << sim::fnv1a64(enc.data(), enc.size());
}

// The instantiation keeps the name it had when first pinned, so test
// ids survive format bumps; the body asserts the current version.
INSTANTIATE_TEST_SUITE_P(
    V3, SnapshotFormat,
    ::testing::Values(Pin{"trickle", 92634, 0x7dbcaa2739ee5081ull},
                      Pin{"rssi_cluster", 115401, 0xb58af547e17d96d0ull},
                      Pin{"trickle_fast", 69674, 0xb8e23a4a3032d163ull}),
    [](const ::testing::TestParamInfo<Pin> &info) {
        return std::string(info.param.scenario);
    });

} // namespace
