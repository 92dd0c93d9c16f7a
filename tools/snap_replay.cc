/**
 * @file
 * snap-replay: time-travel replay and divergence bisection over the
 * byte-stable checkpoint machinery (docs/CHECKPOINT.md).
 *
 * Record mode writes a trace-hash ladder for a scenario: one
 * `checkpoint=` row every --every-ms of simulated time plus a final
 * whole-run row, each pinning the combined per-node trace hash at a
 * barrier. With --snap-dir, the matching snapshots are saved next to
 * the ladder (ck_0.snap, ck_1.snap, ...), giving a checkpoint chain
 * any later invocation can resume from with --from.
 *
 *   snap-replay --scenario=net.scn --every-ms=100 --out=ladder.txt \
 *               --snap-dir=snaps/
 *
 * Compare mode replays the same scenario and bisects the first
 * diverging interval against a recorded ladder: rows are matched by
 * requested time, and the first row whose barrier tick or trace hash
 * differs bounds the divergence to (last matching barrier, that
 * barrier]. Exit status: 0 identical, 1 divergence found (the window
 * prints to stdout), 2 usage or I/O errors.
 *
 *   snap-replay --scenario=net.scn --every-ms=100 --expect=ladder.txt
 *
 * --plant-kill=N@MS injects an extra kill fault — the knob the CI
 * smoke job uses to prove a real divergence is caught and localized.
 * --from=FILE.snap starts the replay at a saved snapshot instead of
 * t=0 (rows before it are skipped in the comparison), so a divergent
 * window can be zoomed into by re-recording both ladders from the
 * last matching snapshot with a finer --every-ms.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"
#include "snapshot/snapshot.hh"
#include "jsonl.hh"

namespace {

using namespace snaple;

/** One parsed ladder row ("checkpoint=.. at_ms=.. trace=0x.." or
 *  "final at_ms=.. trace=0x.."). Fields stay strings: the ladder is
 *  compared byte-wise, never re-interpreted. */
struct LadderRow
{
    std::string key;   ///< requested ms, or "final"
    std::string atMs;  ///< barrier it resolved to
    std::string trace; ///< combined trace hash, 0x%016x
};

std::string
field(const std::string &line, const std::string &name)
{
    const std::string tag = name + "=";
    std::size_t pos = line.find(tag);
    if (pos == std::string::npos)
        return {};
    pos += tag.size();
    const std::size_t end = line.find(' ', pos);
    return line.substr(pos, end == std::string::npos ? std::string::npos
                                                     : end - pos);
}

bool
parseLadderLine(const std::string &line, LadderRow &row)
{
    if (line.rfind("final", 0) == 0)
        row.key = "final";
    else if (line.rfind("checkpoint=", 0) == 0)
        row.key = field(line, "checkpoint");
    else
        return false;
    row.atMs = field(line, "at_ms");
    row.trace = field(line, "trace");
    return !row.atMs.empty() && !row.trace.empty();
}

std::string
formatRow(const LadderRow &r)
{
    std::ostringstream os;
    if (r.key == "final")
        os << "final";
    else
        os << "checkpoint=" << r.key;
    os << " at_ms=" << r.atMs << " trace=" << r.trace;
    return os.str();
}

std::string
hex16(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario_path;
    std::string out_path;
    std::string snap_dir;
    std::string expect_path;
    std::string from_path;
    std::string fidelity_arg;
    std::string plant_arg;
    double every_ms = 0;
    unsigned jobs = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strncmp(argv[i], "--scenario=", 11))
            scenario_path = argv[i] + 11;
        else if (!std::strncmp(argv[i], "--every-ms=", 11))
            every_ms = tools::flagValue<double>("--every-ms", argv[i] + 11);
        else if (!std::strncmp(argv[i], "--jobs=", 7))
            jobs = tools::flagValue<unsigned>("--jobs", argv[i] + 7);
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
            jobs = tools::flagValue<unsigned>("--jobs", argv[++i]);
        else if (!std::strncmp(argv[i], "--out=", 6))
            out_path = argv[i] + 6;
        else if (!std::strncmp(argv[i], "--snap-dir=", 11))
            snap_dir = argv[i] + 11;
        else if (!std::strncmp(argv[i], "--expect=", 9))
            expect_path = argv[i] + 9;
        else if (!std::strncmp(argv[i], "--from=", 7))
            from_path = argv[i] + 7;
        else if (!std::strcmp(argv[i], "--fidelity") && i + 1 < argc)
            fidelity_arg = argv[++i];
        else if (!std::strncmp(argv[i], "--plant-kill=", 13))
            plant_arg = argv[i] + 13;
        else {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        }
    }
    if (scenario_path.empty() || every_ms <= 0) {
        std::fprintf(
            stderr,
            "usage: snap-replay --scenario=FILE.scn --every-ms=MS\n"
            "           [--jobs K] [--fidelity fast|cycle]\n"
            "           [--out=LADDER] [--snap-dir=DIR]\n"
            "           [--expect=LADDER] [--from=FILE.snap]\n"
            "           [--plant-kill=NODE@MS]\n");
        return 2;
    }
    if (!fidelity_arg.empty() && fidelity_arg != "fast" &&
        fidelity_arg != "cycle") {
        std::fprintf(stderr, "unknown fidelity '%s'\n",
                     fidelity_arg.c_str());
        return 2;
    }

    try {
        scenario::Scenario sc =
            scenario::loadScenario(scenario_path);
        if (!plant_arg.empty()) {
            const std::size_t at = plant_arg.find('@');
            if (at == std::string::npos) {
                std::fprintf(stderr,
                             "--plant-kill wants NODE@MS, got %s\n",
                             plant_arg.c_str());
                return 2;
            }
            scenario::Fault f;
            f.kind = scenario::Fault::Kind::Kill;
            f.a = tools::flagValue<std::uint32_t>(
                "--plant-kill", plant_arg.substr(0, at).c_str());
            f.atMs = tools::flagValue<double>("--plant-kill",
                                              plant_arg.c_str() + at + 1);
            sc.faults.push_back(f);
        }

        scenario::RunOptions opt;
        opt.jobs = jobs;
        if (!fidelity_arg.empty())
            opt.fidelityFast = fidelity_arg == "fast";
        if (!snap_dir.empty())
            std::filesystem::create_directories(snap_dir);
        std::size_t n = 0;
        for (double t = every_ms; t < sc.durationMs;
             t += every_ms, ++n) {
            scenario::Checkpoint ck;
            ck.atMs = t;
            if (!snap_dir.empty())
                ck.path = snap_dir + "/ck_" + std::to_string(n) +
                          ".snap";
            opt.checkpoints.push_back(ck);
        }
        snapshot::NetworkSnapshot from;
        if (!from_path.empty()) {
            from = snapshot::readSnapshotFile(from_path);
            opt.restoreFrom = &from;
        }

        const scenario::RunResult res = scenario::runScenario(sc, opt);

        std::vector<LadderRow> ladder;
        for (const scenario::CheckpointRow &c : res.checkpoints)
            ladder.push_back(LadderRow{
                sim::formatDouble(c.requestedMs),
                sim::formatDouble(double(c.at) /
                                  double(sim::kMillisecond)),
                hex16(c.trace)});
        ladder.push_back(LadderRow{
            "final", sim::formatDouble(res.durationMs),
            hex16(res.combinedTraceHash)});

        std::ostringstream text;
        for (const LadderRow &r : ladder)
            text << formatRow(r) << "\n";

        if (expect_path.empty()) {
            std::fputs(text.str().c_str(), stdout);
            if (!out_path.empty()) {
                std::ofstream out(out_path);
                if (!out) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 out_path.c_str());
                    return 2;
                }
                out << text.str();
            }
            return 0;
        }

        // Bisect against the recorded ladder: rows align by requested
        // time (--from skips recorded rows before the restore point),
        // and the first row whose barrier or hash differs bounds the
        // divergence window.
        std::ifstream exp(expect_path);
        if (!exp) {
            std::fprintf(stderr, "cannot read %s\n",
                         expect_path.c_str());
            return 2;
        }
        std::vector<LadderRow> expected;
        std::string line;
        while (std::getline(exp, line)) {
            LadderRow r;
            if (parseLadderLine(line, r))
                expected.push_back(r);
        }
        if (expected.empty()) {
            std::fprintf(stderr, "%s has no ladder rows\n",
                         expect_path.c_str());
            return 2;
        }
        std::size_t e = 0;
        if (!ladder.empty())
            while (e < expected.size() &&
                   expected[e].key != ladder.front().key)
                ++e;
        std::string lastGoodMs = from_path.empty() ? "0" : "restore";
        for (std::size_t i = 0; i < ladder.size(); ++i, ++e) {
            if (e >= expected.size()) {
                std::printf("divergence: recorded ladder ends before "
                            "row %s\n",
                            ladder[i].key.c_str());
                return 1;
            }
            if (expected[e].key != ladder[i].key) {
                std::printf("divergence: row order mismatch "
                            "(expected %s, got %s)\n",
                            formatRow(expected[e]).c_str(),
                            formatRow(ladder[i]).c_str());
                return 1;
            }
            if (expected[e].atMs != ladder[i].atMs ||
                expected[e].trace != ladder[i].trace) {
                std::printf("divergence in (%s ms, %s ms]\n",
                            lastGoodMs.c_str(),
                            ladder[i].atMs.c_str());
                std::printf("  expected: %s\n",
                            formatRow(expected[e]).c_str());
                std::printf("  actual:   %s\n",
                            formatRow(ladder[i]).c_str());
                return 1;
            }
            lastGoodMs = ladder[i].atMs;
        }
        std::printf("identical: %zu rows through %s ms\n",
                    ladder.size(), lastGoodMs.c_str());
        return 0;
    } catch (const sim::FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }
}
