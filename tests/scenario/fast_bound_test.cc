/**
 * @file
 * The fast tier's error bound at scenario scale (ROADMAP item 7): each
 * all-cycle shipped scenario, forced onto the fast tier, must land
 * within 10 % of its cycle golden's final `all` core.active_ticks and
 * within 0.1 % of its processor dynamic energy (every ledger category
 * but radio and leakage). Both tiers price instructions with one cost
 * function (core/instr_cost.hh), so the measured error is far inside
 * either bound; the bound is what makes drift fail CI.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "energy/ledger.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace {

using namespace snaple;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "missing golden file " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The value of the last `all` sample named @p name in a JSONL
 *  metrics stream; NaN when there is none. */
double
lastAll(const std::string &jsonl, const std::string &name)
{
    const std::string key =
        "\"node\":\"all\",\"name\":\"" + name + "\",";
    double v = std::nan("");
    std::istringstream in(jsonl);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find(key) == std::string::npos)
            continue;
        const std::size_t at = line.find("\"v\":");
        if (at != std::string::npos)
            v = std::strtod(line.c_str() + at + 4, nullptr);
    }
    return v;
}

/** Processor dynamic energy: every ledger category but the radio's
 *  and leakage, from the last `all` energy gauges. */
double
processorPj(const std::string &jsonl)
{
    double pj = 0;
    for (std::size_t c = 0; c < energy::kNumCats; ++c) {
        const auto cat = static_cast<energy::Cat>(c);
        if (cat == energy::Cat::Radio || cat == energy::Cat::Leakage)
            continue;
        pj += lastAll(jsonl, "energy." + std::string(energy::catName(cat)) +
                                 "_pj");
    }
    return pj;
}

class FastTierBound : public ::testing::TestWithParam<const char *>
{};

TEST_P(FastTierBound, ForcedFastTracksTheCycleGolden)
{
    const std::string name = GetParam();
    const std::string root = SNAPLE_SOURCE_DIR;
    const scenario::Scenario sc = scenario::loadScenario(
        root + "/examples/scenarios/" + name + ".scn");
    std::ostringstream metrics;
    scenario::RunOptions opt;
    opt.fidelityFast = true;
    opt.metricsOut = &metrics;
    scenario::runScenario(sc, opt);

    const std::string golden =
        readFile(root + "/tests/scenario/golden/" + name + ".jsonl");
    const double cycTicks = lastAll(golden, "core.active_ticks");
    const double fastTicks = lastAll(metrics.str(), "core.active_ticks");
    ASSERT_GT(cycTicks, 0);
    EXPECT_LE(std::fabs(fastTicks - cycTicks), 0.10 * cycTicks)
        << "fast " << fastTicks << " cycle " << cycTicks;

    const double cycPj = processorPj(golden);
    const double fastPj = processorPj(metrics.str());
    ASSERT_GT(cycPj, 0);
    EXPECT_LE(std::fabs(fastPj - cycPj), 0.001 * cycPj)
        << "fast " << fastPj << " cycle " << cycPj;
}

INSTANTIATE_TEST_SUITE_P(AllCycleScenarios, FastTierBound,
                         ::testing::Values("trickle", "dutycycle", "leach",
                                           "rssi_cluster"));

} // namespace
