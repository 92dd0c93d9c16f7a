/**
 * @file
 * Golden scenario-regression suite: every shipped scenario under
 * examples/scenarios/ is executed (at --jobs 2, which the
 * determinism contract makes equivalent to any other count) and its
 * canonical experiment rows and metrics JSONL stream are compared
 * byte-for-byte against the checked-in golden files in
 * tests/scenario/golden/. One scenario's CSV stream is pinned too,
 * so both metrics formats have a byte reference.
 *
 * When a change intentionally shifts a scenario's behaviour,
 * regenerate the goldens with one command and review the diff:
 *
 *     tools/regen_scenario_goldens.sh [builddir]
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace {

using namespace snaple;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "missing golden file " << path
                    << " (run tools/regen_scenario_goldens.sh)";
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

class ScenarioGolden : public ::testing::TestWithParam<const char *>
{};

TEST_P(ScenarioGolden, RowsAndMetricsMatchGolden)
{
    const std::string name = GetParam();
    const std::string root = SNAPLE_SOURCE_DIR;
    const scenario::Scenario sc = scenario::loadScenario(
        root + "/examples/scenarios/" + name + ".scn");

    std::ostringstream metrics;
    scenario::RunOptions opt;
    opt.jobs = 2;
    opt.metricsOut = &metrics;
    const scenario::RunResult res = scenario::runScenario(sc, opt);

    const std::string golden = root + "/tests/scenario/golden/" + name;
    EXPECT_EQ(res.rows(), readFile(golden + ".row"))
        << "experiment rows drifted for " << name;
    EXPECT_EQ(metrics.str(), readFile(golden + ".jsonl"))
        << "metrics stream drifted for " << name;
}

TEST_P(ScenarioGolden, ScenarioFileIsCanonical)
{
    // Shipped scenarios stay in canonical form modulo comments and
    // layout: serialize must be a fixed point over them too.
    const std::string root = SNAPLE_SOURCE_DIR;
    const scenario::Scenario sc = scenario::loadScenario(
        root + "/examples/scenarios/" + std::string(GetParam()) +
        ".scn");
    const std::string s1 = scenario::serializeScenario(sc);
    EXPECT_EQ(s1, scenario::serializeScenario(scenario::parseScenario(
                      s1, GetParam())));
}

TEST(ScenarioGoldenCsv, DutycycleCsvMatchesGolden)
{
    const std::string root = SNAPLE_SOURCE_DIR;
    const scenario::Scenario sc = scenario::loadScenario(
        root + "/examples/scenarios/dutycycle.scn");
    std::ostringstream metrics;
    scenario::RunOptions opt;
    opt.jobs = 2;
    opt.metricsOut = &metrics;
    opt.metricsCsv = true;
    scenario::runScenario(sc, opt);
    EXPECT_EQ(metrics.str(),
              readFile(root + "/tests/scenario/golden/dutycycle.csv"))
        << "CSV metrics stream drifted for dutycycle";
}

INSTANTIATE_TEST_SUITE_P(Shipped, ScenarioGolden,
                         ::testing::Values("trickle", "leach",
                                           "dutycycle", "rssi_cluster",
                                           "trickle_fast"));

} // namespace
