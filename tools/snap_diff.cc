/**
 * @file
 * snap-diff: differential co-simulation fuzzer for the SNAP ISA.
 *
 * Usage: snap-diff [--seed S] [--count N] [--class C] [--no-smc]
 *                  [--blocks B] [--mutation M] [--fidelity F]
 *                  [--max-seconds T] [--replay SEED] [--dump-asm]
 *                  [--quiet]
 *
 * Generates N seeded random programs (per-program seed i is
 * sim::deriveSeed(S, i)), runs each on the timed machine model and on
 * the untimed architectural reference, and diffs the two per-
 * instruction commit streams plus the final architectural state. The
 * first divergence stops the run and prints a self-contained report:
 * both commit records, a disassembly window around the divergent pc,
 * and a --replay command that re-runs exactly that program.
 *
 * --class fixes the generator class (alu, memory, control, msgio,
 * timer, smc); by default the class is picked from each program's
 * seed, with smc included. --mutation M (1-7) plants seeded bug M in
 * the *reference* (see ref/ref_machine.hh), so a passing sweep under
 * --mutation is itself a failure of the harness. --fidelity picks the
 * core tier under test, in snap-run's vocabulary: cycle (default, the
 * CHP two-process core) or fast (the predecoded core).
 * --max-seconds time-boxes long fuzz runs (nightly CI): the sweep
 * stops cleanly after the current program once the budget is spent.
 *
 * Numbers are read strictly: a value that is not a whole non-negative
 * number in range exits 2 naming the flag. Seeds may also be written
 * in the 0x... hex that the repro lines print.
 *
 * Exit status: 0 all programs agreed, 1 divergence or harness failure,
 * 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <ctime>
#include <string>

#include "jsonl.hh"
#include "ref/diff.hh"
#include "ref/progen.hh"
#include "sim/rng.hh"

namespace {

/** Largest --blocks: well past what fits the 2K-word IMEM (an
 *  oversized program is reported as a harness failure). */
constexpr unsigned kMaxBlocks = 1024;

/** Highest seeded mutation id (ref::RefOptions::mutation). */
constexpr unsigned kMaxMutation = 7;

/** A seed: decimal, or the 0x... hex the repro lines print; anything
 *  else exits 2 naming @p flag. */
std::uint64_t
seedValue(const char *flag, const char *text)
{
    if (text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
        const char *hex = text + 2;
        const std::size_t n = std::strspn(hex, "0123456789abcdefABCDEF");
        if (n > 0 && n <= 16 && hex[n] == '\0')
            return std::strtoull(hex, nullptr, 16);
    }
    return snaple::tools::flagValue<std::uint64_t>(flag, text);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace snaple;
    using tools::flagValue;

    std::uint64_t seed = 1;
    std::uint64_t count = 1000;
    bool replay = false;
    std::uint64_t replaySeed = 0;
    double maxSeconds = 0; // 0 = no time box
    bool dumpAsm = false;
    bool quiet = false;
    ref::DiffConfig cfg;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (!std::strcmp(arg, "--seed") && hasValue)
            seed = seedValue(arg, argv[++i]);
        else if (!std::strcmp(arg, "--count") && hasValue) {
            count = flagValue<std::uint64_t>(arg, argv[++i]);
            if (count == 0) {
                // A sweep of no programs would pass like a clean one.
                std::fprintf(stderr,
                             "--count: invalid value '0' (expected at "
                             "least 1 program)\n");
                return 2;
            }
        }
        else if (!std::strcmp(arg, "--replay") && hasValue) {
            replay = true;
            replaySeed = seedValue(arg, argv[++i]);
        } else if (!std::strcmp(arg, "--class") && hasValue) {
            auto c = ref::classByName(argv[++i]);
            if (!c) {
                std::fprintf(stderr, "unknown class '%s'\n", argv[i]);
                return 2;
            }
            cfg.anyClass = false;
            cfg.cls = *c;
        } else if (!std::strcmp(arg, "--no-smc"))
            cfg.includeSmc = false;
        else if (!std::strcmp(arg, "--blocks") && hasValue)
            cfg.gen.blocks =
                static_cast<int>(flagValue(arg, argv[++i], kMaxBlocks));
        else if (!std::strcmp(arg, "--mutation") && hasValue)
            cfg.mutation = flagValue(arg, argv[++i], kMaxMutation);
        else if (!std::strcmp(arg, "--fidelity") && hasValue) {
            const char *f = argv[++i];
            if (!std::strcmp(f, "cycle"))
                cfg.fidelity = core::FidelityMode::Cycle;
            else if (!std::strcmp(f, "fast"))
                cfg.fidelity = core::FidelityMode::Fast;
            else {
                std::fprintf(stderr,
                             "unknown fidelity '%s' (expected fast or "
                             "cycle)\n",
                             f);
                return 2;
            }
        } else if (!std::strcmp(arg, "--max-seconds") && hasValue)
            maxSeconds = flagValue<double>(arg, argv[++i]);
        else if (!std::strcmp(arg, "--dump-asm"))
            dumpAsm = true;
        else if (!std::strcmp(arg, "--quiet"))
            quiet = true;
        else {
            std::fprintf(
                stderr,
                "usage: snap-diff [--seed S] [--count N] [--class C] "
                "[--no-smc] [--blocks B] [--mutation 0-7] "
                "[--fidelity fast|cycle] [--max-seconds T] "
                "[--replay SEED] [--dump-asm] [--quiet]\n");
            return 2;
        }
    }

    if (dumpAsm) {
        // Print the generated program for one seed and exit; useful
        // when inspecting a failing --replay seed.
        const std::uint64_t s =
            replay ? replaySeed : sim::deriveSeed(seed, 0);
        sim::Rng rng(s);
        const ref::ProgClass cls =
            cfg.anyClass ? ref::pickClass(rng, cfg.includeSmc) : cfg.cls;
        ref::GenProgram gp = ref::generate(rng, cls, cfg.gen);
        std::printf("; seed 0x%016llx class %s\n%s",
                    static_cast<unsigned long long>(s),
                    std::string(ref::className(cls)).c_str(),
                    gp.source.c_str());
        return 0;
    }

    const std::clock_t t0 = std::clock();
    std::uint64_t perClass[ref::kNumProgClasses] = {};
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < (replay ? 1 : count); ++i) {
        const std::uint64_t s =
            replay ? replaySeed : sim::deriveSeed(seed, i);
        ref::DiffOutcome out = ref::diffOne(s, cfg);
        ++ran;
        ++perClass[static_cast<std::size_t>(out.cls)];
        if (!out.ok) {
            std::fprintf(stderr, "FAIL after %llu program%s:\n%s",
                         static_cast<unsigned long long>(ran),
                         ran == 1 ? "" : "s", out.report.c_str());
            return 1;
        }
        if (!quiet && !replay && count >= 1000 &&
            (i + 1) % (count / 10) == 0)
            std::printf("  %llu/%llu ok\n",
                        static_cast<unsigned long long>(i + 1),
                        static_cast<unsigned long long>(count));
        if (maxSeconds > 0) {
            const double elapsed = double(std::clock() - t0) /
                                   double(CLOCKS_PER_SEC);
            if (elapsed >= maxSeconds) {
                if (!quiet)
                    std::printf("time box of %.0f s reached\n",
                                maxSeconds);
                break;
            }
        }
    }

    std::printf("OK: %llu program%s, 0 divergences (",
                static_cast<unsigned long long>(ran),
                ran == 1 ? "" : "s");
    bool firstCls = true;
    for (std::size_t c = 0; c < ref::kNumProgClasses; ++c) {
        if (!perClass[c])
            continue;
        std::printf("%s%s %llu", firstCls ? "" : ", ",
                    std::string(ref::className(
                                    static_cast<ref::ProgClass>(c)))
                        .c_str(),
                    static_cast<unsigned long long>(perClass[c]));
        firstCls = false;
    }
    std::printf(")\n");
    return 0;
}
