/**
 * @file
 * Ablation for section 6's first future-work item: "Improving the
 * generated code from lcc is a subject of our current
 * investigations."
 *
 * The Temperature application is written three ways — hand-written
 * assembly (the suite's lcc-flavored version), C compiled by snapcc
 * in lcc-faithful mode, and the same C compiled with snapcc's
 * optimizations — and measured per handler episode like Table 1.
 * The lcc-mode/optimized delta is the headroom the authors describe;
 * the paper's own observation that loads dominate because of
 * "unnecessary save/restore" shows up directly in the class mix.
 */

#include <cstdio>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "cc/codegen.hh"
#include "common.hh"
#include "net/parallel_network.hh"
#include "sensor/sensor.hh"

namespace {

using namespace snaple;
using namespace snaple::bench;

/** The Temperature app in snapcc C. */
const char *kTemperatureC = R"(
    int avg;
    int logidx;
    int logbuf[32];

    handler on_timer() {
        __msg_write(0x9000);            /* CMD_QUERY sensor 0 */
        __done();
    }

    handler on_data() {
        int sample = __msg_read();
        avg = avg + ((sample - avg) >> 2);
        logbuf[logidx] = avg;
        logidx = (logidx + 1) & 31;
        __dbgout(avg);
        __sched_lo(0, 2000);
        __done();
    }

    handler main() {
        avg = 0;
        logidx = 0;
        __setaddr(0, on_timer);
        __setaddr(5, on_data);
        __sched_lo(0, 2000);
        __done();
    }
)";

struct Result
{
    double ins_per_iter;
    double pj_per_iter;
    double load_share;
    std::size_t code_bytes;
};

Result
measure(const assembler::Program &prog)
{
    net::ParallelNetwork net;
    node::NodeConfig cfg;
    cfg.name = "t";
    cfg.attachRadio = false;
    cfg.core.stopOnHalt = false;
    auto &n = net.addNode(cfg, prog);
    // Monotonically rising samples keep (sample - avg) non-negative,
    // so C's logical >> matches the assembly version's arithmetic
    // shift on this input.
    sensor::ScriptedSensor sens(
        {100, 160, 220, 280, 340, 400, 460, 520, 580, 640, 700});
    n.attachSensor(0, sens);
    net.start();
    net.runFor(sim::kMillisecond);
    Snapshot before = Snapshot::of(n);
    auto cls_before = n.core().stats().perClass;
    const int iters = 10;
    net.runFor(iters * 2 * sim::kMillisecond);
    Episode e = Episode::between(before, Snapshot::of(n));

    Result r;
    r.ins_per_iter = double(e.instructions) / iters;
    r.pj_per_iter = e.processorPj / iters;
    auto loads =
        n.core().stats().perClass[std::size_t(isa::InstrClass::Load)] -
        cls_before[std::size_t(isa::InstrClass::Load)];
    r.load_share = double(loads) / double(e.instructions);
    r.code_bytes = prog.imemBytes();
    return r;
}

void
row(const char *name, const Result &r)
{
    std::printf("%-30s | %9.1f %10.0f %9.0f%% %9zu\n", name,
                r.ins_per_iter, r.pj_per_iter, 100.0 * r.load_share,
                r.code_bytes);
}

} // namespace

int
main()
{
    banner("Ablation (section 6): compiler code quality on the "
           "Temperature app");

    cc::Options lcc_mode;
    lcc_mode.optimize = false;
    cc::Options opt_mode;
    opt_mode.optimize = true;

    Result hand = measure(
        assembler::assembleSnap(apps::temperatureProgram(2000)));
    Result lcc = measure(assembler::assembleSnap(
        cc::compileToAsm(kTemperatureC, lcc_mode), "<cc-lcc>"));
    Result opt = measure(assembler::assembleSnap(
        cc::compileToAsm(kTemperatureC, opt_mode), "<cc-opt>"));

    std::printf("%-30s | %9s %10s %9s %9s\n", "code",
                "ins/iter", "pJ/iter", "loads", "bytes");
    rule('-', 78);
    row("snapcc, lcc-faithful mode", lcc);
    row("snapcc, optimized mode", opt);
    row("hand-written assembly", hand);
    rule('-', 78);
    std::printf(
        "optimized vs lcc mode: %.0f%% fewer instructions, %.0f%% "
        "less energy per\niteration. The paper observed the same "
        "headroom: \"Arith Reg\" and \"Load\"\ndominate its Table 1 "
        "because lcc spills and saves registers unnecessarily;\nthe "
        "load share above quantifies it.\n",
        100.0 * (1.0 - opt.ins_per_iter / lcc.ins_per_iter),
        100.0 * (1.0 - opt.pj_per_iter / lcc.pj_per_iter));
    return 0;
}
