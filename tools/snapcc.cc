/**
 * @file
 * snapcc: the small-C compiler for the SNAP ISA, as a CLI.
 *
 * Usage: snapcc FILE.c [-O] [--run [--ms N] [--volts V]]
 *
 * Without --run, prints the generated SNAP assembly. With --run,
 * assembles and executes on the machine model and prints the
 * __dbgout stream plus summary statistics.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "asm/snap_backend.hh"
#include "cc/codegen.hh"
#include "core/machine.hh"
#include "jsonl.hh"

int
main(int argc, char **argv)
{
    using namespace snaple;

    const char *path = nullptr;
    cc::Options opts;
    bool run = false;
    double ms = 100.0;
    double volts = 0.6;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "-O"))
            opts.optimize = true;
        else if (!std::strcmp(argv[i], "--run"))
            run = true;
        else if (!std::strcmp(argv[i], "--ms") && i + 1 < argc)
            ms = tools::flagValue<double>(
                "--ms", argv[++i],
                double(sim::kMaxSpan / sim::kMillisecond));
        else if (!std::strcmp(argv[i], "--volts") && i + 1 < argc)
            volts = tools::flagValue<double>("--volts", argv[++i]);
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else
            path = argv[i];
    }
    if (!path) {
        std::fprintf(stderr, "usage: snapcc FILE.c [-O] [--run "
                             "[--ms N] [--volts V]]\n");
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    std::ostringstream src;
    src << in.rdbuf();

    try {
        std::string asm_text =
            cc::compileToAsm(src.str(), opts, path);
        if (!run) {
            std::fputs(asm_text.c_str(), stdout);
            return 0;
        }
        core::CoreConfig cfg;
        cfg.volts = volts;
        sim::Kernel kernel;
        core::Machine machine(kernel, cfg);
        machine.load(assembler::assembleSnap(asm_text, path));
        machine.start();
        kernel.run(kernel.now() + sim::fromMs(ms));
        for (std::uint16_t v : machine.core().debugOut())
            std::printf("dbgout: %u (0x%04x)\n", v, v);
        const auto &st = machine.core().stats();
        std::printf("-- %llu instructions, %llu handlers, %.1f nJ "
                    "(%s mode)\n",
                    static_cast<unsigned long long>(st.instructions),
                    static_cast<unsigned long long>(st.handlers),
                    machine.ctx().ledger.processorPj() / 1e3,
                    opts.optimize ? "optimized" : "lcc");
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}
