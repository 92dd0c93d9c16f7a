/**
 * @file
 * Observation invariance: looking at a run must not change it. Every
 * shipped scenario under examples/scenarios/ runs with nothing
 * observed, with the metrics stream at two cadences, with the flow
 * stream on and with checkpoints at two cadences; every row, `trace=`
 * and `energy_uj` included, must be byte-identical across all of
 * them. Static energy is computed at read time (core/context.hh,
 * NodeContext::energy()), so no sample, checkpoint or battery check
 * can split a floating-point sum or add a trace event.
 */

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace {

using namespace snaple;

const std::string kRoot = SNAPLE_SOURCE_DIR;

/** Every shipped scenario, by file stem, in name order. */
std::vector<std::string>
shippedScenarios()
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(
             kRoot + "/examples/scenarios"))
        if (e.path().extension() == ".scn")
            names.push_back(e.path().stem().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** What one run observes. */
struct Observe
{
    const char *what;
    double metricsMs = 0;    ///< 0 = no metrics stream
    bool flows = false;
    double checkpointMs = 0; ///< checkpoint cadence; 0 = none
};

/** rows() without the checkpoint lines, which only some runs take. */
std::string
runRows(scenario::Scenario sc, const Observe &o)
{
    // The scenario's own checkpoint stanzas are observation too.
    sc.checkpoints.clear();
    sc.metricsMs = o.metricsMs;
    std::ostringstream metrics, flows;
    scenario::RunOptions opt;
    if (o.metricsMs > 0)
        opt.metricsOut = &metrics;
    if (o.flows)
        opt.flowsOut = &flows;
    if (o.checkpointMs > 0)
        for (double t = o.checkpointMs;
             t + o.checkpointMs <= sc.durationMs; t += o.checkpointMs)
            opt.checkpoints.push_back(scenario::Checkpoint{t, ""});
    const scenario::RunResult res = scenario::runScenario(sc, opt);

    std::istringstream in(res.rows());
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("checkpoint=", 0) != 0)
            out << line << "\n";
    return out.str();
}

class ObservationInvariance
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(ObservationInvariance, RowsDoNotDependOnWhatIsObserved)
{
    const scenario::Scenario sc = scenario::loadScenario(
        kRoot + "/examples/scenarios/" + GetParam() + ".scn");
    const std::string blind = runRows(sc, {"nothing"});
    ASSERT_FALSE(blind.empty());
    const double own = sc.metricsMs > 0 ? sc.metricsMs : 250;
    for (const Observe &o :
         {Observe{"metrics at the scenario's cadence", own},
          Observe{"metrics at 33 ms", 33},
          Observe{"flows", 0, true},
          Observe{"checkpoints every 100 ms", 0, false, 100},
          Observe{"checkpoints every 137 ms", 0, false, 137}})
        EXPECT_EQ(runRows(sc, o), blind) << "observing " << o.what;
}

INSTANTIATE_TEST_SUITE_P(
    Shipped, ObservationInvariance,
    ::testing::ValuesIn(shippedScenarios()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
