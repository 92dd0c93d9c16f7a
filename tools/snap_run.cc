/**
 * @file
 * snap-run: run a SNAP program on a simulated SNAP/LE machine.
 *
 * Usage: snap-run FILE.s [--volts V[,V...]] [--ms N] [--stats]
 *                        [--nodes N] [--jobs K] [--seed S]
 *                        [--fidelity fast|cycle]
 *                        [--trace=FILE] [--trace-format=json|vcd]
 *                        [--metrics=FILE] [--metrics-interval=TICKS]
 *                        [--metrics-format=jsonl|csv] [--profile]
 *        snap-run --scenario=FILE.scn [--jobs K] [--row=FILE]
 *                        [--fidelity fast|cycle]
 *                        [--metrics=FILE] [--metrics-format=jsonl|csv]
 *                        [--flows=FILE] [--profile]
 *                        [--save-at=MS]... [--save=FILE.snap]
 *                        [--restore=FILE.snap]
 *
 * `--trace=-`, `--metrics=-` and `--flows=-` stream to stdout instead
 * of a file (pipe straight into snap-trace / snap-report).
 *
 * Runs for N simulated milliseconds (default 100) or until `halt`,
 * prints the `dbgout` stream, and optionally a stats/energy report.
 * The default single-machine mode runs one node without a radio
 * (core, memories, timer and message coprocessors) on a one-shard
 * parallel network: events can only come from the timer coprocessor,
 * and a radio command on r15 exits 1. Its LFSR is seeded from --seed
 * like any node's. With --trace, it records the structured event
 * trace (scopes `n0.core`, `n0.evq`, ...) and writes it as Chrome
 * trace_event JSON (load in chrome://tracing or Perfetto) or as a VCD
 * waveform; the 64-bit trace hash is printed either way. --trace,
 * --trace-format and --timeline work only in that mode, and --row
 * only with --scenario; elsewhere they exit 2.
 *
 * With --nodes > 1 the same program is loaded into N full radio nodes
 * and run as a scenario (all-to-all topology, --ms long) by the
 * scenario runner, advanced by --jobs worker lanes. Each node's LFSR
 * is seeded from --seed and its node id (sim::deriveSeed), so runs
 * are reproducible and the per-node trace hashes printed at the end
 * are independent of the job count. --volts takes a comma-separated
 * list assigned round-robin over the nodes (a heterogeneous-supply
 * deployment in one run).
 *
 * With --metrics, periodic registry snapshots stream to FILE every
 * --metrics-interval ticks of simulated time (docs/METRICS.md has the
 * schema); --profile adds end-of-run per-PC flat-profile rows. Feed
 * the file to snap-report for paper-style tables.
 *
 * With --scenario, a declarative scenario file (docs/SCENARIOS.md)
 * supplies everything — topology, programs, seeds, duty cycles and a
 * fault schedule — and the canonical experiment rows (trace hash +
 * counters + energy) print to stdout, byte-identical for any --jobs;
 * --row also writes them to FILE. The metrics cadence comes from the
 * scenario's metrics_ms; --ms, --seed, --volts, --nodes, --stats and
 * --metrics-interval describe a program run and exit 2 here.
 *
 * With --flows (scenario or --nodes mode), flow-span JSONL streams to
 * FILE: one record per transmission, causally linked across nodes
 * within the scenario's flow_window_ms (docs/TRACING.md). The stream
 * is byte-identical for any --jobs; snap-trace folds it into
 * dissemination trees and latency tables.
 *
 * --fidelity selects the execution tier (docs/SIMULATOR.md): `cycle`
 * is the CHP per-access model, `fast` the predecoded interpreter,
 * which prices each instruction with the cycle tier's cost function.
 * In scenario mode the flag overrides every node's `fidelity` stanza;
 * without it the scenario decides per node.
 *
 * Checkpointing (scenario mode only, docs/CHECKPOINT.md): each
 * --save-at=MS schedules a checkpoint; its `checkpoint=` row prints
 * with the others, and with a single --save-at, --save=FILE writes
 * the byte-stable snapshot there. --restore=FILE resumes a previous
 * snapshot instead of starting at t=0. The scenario and host knobs
 * must match the saving run: a node whose fidelity, volts or
 * profiling differ exits 1 naming the knob. The continuation's
 * rows are byte-identical to the uninterrupted run's.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "node/power.hh"
#include "scenario/runner.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"
#include "snapshot/snapshot.hh"
#include "jsonl.hh"

namespace {

using namespace snaple;

/** Longest --ms whose end tick cannot overflow sim::Tick. */
constexpr double kMaxMs = double(sim::kMaxSpan / sim::kMillisecond);

/** Print a usage error; returns the usage-error exit status, 2. */
[[gnu::format(printf, 1, 2)]] int
usage(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    return 2;
}

/** Parse a comma-separated voltage list ("1.8,0.9,0.6"). */
std::vector<double>
parseVolts(const char *arg)
{
    std::vector<double> out;
    std::string s(arg);
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(tools::flagValue<double>(
            "--volts", s.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
    }
    return out;
}

/** @p value of @p flag if it is @p a or @p b; otherwise exit 2. */
std::string
choice(const char *flag, const char *value, const char *a,
       const char *b)
{
    if (std::strcmp(value, a) && std::strcmp(value, b))
        std::exit(usage("unknown %s '%s' (expected %s or %s)\n", flag,
                        value, a, b));
    return value;
}

/** The whole of file @p path. */
std::string
readText(const std::string &path)
{
    std::ifstream in(path);
    sim::fatalIf(!in, "cannot open ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The stream for output @p path: stdout for "-", else @p file
 *  opened on it. */
std::ostream *
openOut(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return &std::cout;
    file.open(path);
    sim::fatalIf(!file, "cannot write ", path);
    return &file;
}

/** The run modes. A flag that only some modes honour exits 2 in the
 *  others instead of being dropped. */
enum Mode : unsigned
{
    kSingle = 1,   ///< FILE.s alone: one radio-less node
    kNodes = 2,    ///< FILE.s --nodes N > 1
    kScenario = 4, ///< --scenario=FILE.scn
    kProgram = kSingle | kNodes,
    kAny = kSingle | kNodes | kScenario,
};

/** What a flag honoured only in @p modes needs, for its error. */
const char *
needs(unsigned modes)
{
    switch (modes) {
      case kSingle: return "single-machine mode (no --scenario, --nodes 1)";
      case kProgram: return "a program file (the scenario sets it)";
      case kScenario: return "--scenario";
      default: return "--scenario or --nodes > 1";
    }
}

/** One command-line flag: `--name VALUE` (form ' '), `--name=VALUE`
 *  (form '='), or bare `--name` (form 0). */
struct Flag
{
    const char *name;
    char form;
    const char *value; ///< the value's name in the usage line
    unsigned modes;    ///< Mode bits that honour it
    std::function<void(const char *value)> set;
};

/** The --nodes report: every node's dbgout stream, trace hash and
 *  seed, then with @p stats the air, energy and event totals. */
void
printNodes(const scenario::RunResult &res, unsigned jobs, bool stats,
           double elapsed)
{
    std::uint64_t instructions = 0;
    double totalPj = 0.0;
    for (const scenario::NodeOutcome &o : res.outcomes) {
        for (std::uint16_t v : o.dbgOut)
            std::printf("%s dbgout: %u (0x%04x)\n", o.name.c_str(), v,
                        v);
        instructions += o.instructions;
        totalPj += o.energyPj;
    }
    for (std::size_t i = 0; i < res.outcomes.size(); ++i)
        std::printf("%s: trace hash 0x%016" PRIx64 ", seed 0x%04x\n",
                    res.outcomes[i].name.c_str(),
                    res.outcomes[i].traceHash,
                    static_cast<unsigned>(
                        res.seed ? sim::deriveSeed(res.seed, i) & 0xffff
                                 : 0));
    if (!stats)
        return;
    const radio::Medium::Stats &air = res.air;
    std::printf("--\n");
    std::printf("air          : %" PRIu64 " sent, %" PRIu64
                " delivered, %" PRIu64 " collided, drops %" PRIu64
                " mode / %" PRIu64 " fifo\n",
                air.wordsSent, air.wordsDelivered, air.collisions,
                air.dropsMode, air.dropsFifo);
    std::printf("energy       : %.2f uJ total across %zu nodes\n",
                totalPj / 1e6, res.nodes);
    std::printf("events       : %" PRIu64 " across %zu shards, %u "
                "lane%s, window %.1f us\n",
                res.eventsDispatched, res.nodes, jobs,
                jobs == 1 ? "" : "s", sim::toUs(res.window));
    if (elapsed > 0.0)
        std::printf("host speed   : %.0f instr/sec (%.2f s host)\n",
                    double(instructions) / elapsed, elapsed);
}

/** The single-machine --stats report of node @p n. */
void
printStats(node::SnapNode &n, double elapsed)
{
    const core::SnapCore::Stats &st = n.core().stats();
    const energy::EnergyLedger l = n.ctx().energy();
    const sim::Tick now = n.ctx().kernel.now();
    std::printf("--\n");
    std::printf("state        : %s\n",
                n.core().halted()   ? "halted"
                : n.core().asleep() ? "asleep"
                                    : "running");
    std::printf("instructions : %" PRIu64 "\n", st.instructions);
    std::printf("handlers     : %" PRIu64 " (sleep/wake %" PRIu64
                "/%" PRIu64 ")\n",
                st.handlers, st.sleeps, st.wakeups);
    std::printf("active time  : %.2f us\n", sim::toUs(st.activeTime));
    if (elapsed > 0.0)
        std::printf("host speed   : %.0f instr/sec (%.2f s host)\n",
                    double(st.instructions) / elapsed, elapsed);
    if (st.instructions)
        std::printf("energy       : %.1f nJ dynamic (%.1f pJ/ins), "
                    "%.1f nJ leakage\n",
                    l.processorPj() / 1e3,
                    l.processorPj() / double(st.instructions),
                    l.pj(energy::Cat::Leakage) / 1e3);
    std::printf("avg power    : %.1f nW dynamic + %.1f nW leak\n",
                node::averagePowerNw(l.processorPj(), now),
                node::averagePowerNw(l.pj(energy::Cat::Leakage), now));
    for (std::size_t e = 0; e < isa::kNumEvents; ++e)
        if (const auto &h = st.perEvent[e]; h.activations)
            std::printf(
                "handler %-10s: %" PRIu64 " activations, %.1f ins each\n",
                isa::eventName(static_cast<isa::EventNum>(e)).data(),
                h.activations, h.instructionsPerActivation());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace snaple;
    using tools::flagValue;

    const char *path = nullptr;
    std::vector<double> volts{0.6};
    bool stats = false;
    bool timeline = false;
    std::string trace_path;
    std::string trace_format = "json";
    std::string metrics_path;
    std::string flows_path;
    std::string scenario_path;
    std::string row_path;
    std::string save_path;
    std::string restore_path;
    sim::Tick metrics_interval = 10 * sim::kMillisecond;
    scenario::RunOptions opt;
    // The run FILE.s describes, as a scenario: --nodes copies of the
    // program on an all-to-all topology, --volts round-robin.
    scenario::Scenario prog;
    prog.nodes = 1;
    prog.durationMs = 100.0;
    const Flag flags[] = {
        {"--volts", ' ', "V[,V...]", kProgram,
         [&](auto v) { volts = parseVolts(v); }},
        {"--ms", ' ', "N", kProgram,
         [&](auto v) {
             prog.durationMs = flagValue<double>("--ms", v, kMaxMs);
         }},
        {"--nodes", ' ', "N", kProgram,
         [&](auto v) { prog.nodes = flagValue<unsigned>("--nodes", v); }},
        {"--seed", ' ', "S", kProgram,
         [&](auto v) {
             prog.seed = flagValue<std::uint64_t>("--seed", v);
         }},
        {"--stats", 0, "", kProgram, [&](auto) { stats = true; }},
        {"--metrics-interval", '=', "TICKS", kProgram,
         [&](auto v) {
             metrics_interval = flagValue<sim::Tick>(
                 "--metrics-interval", v, sim::kMaxSpan);
         }},
        {"--timeline", 0, "", kSingle, [&](auto) { timeline = true; }},
        {"--trace", '=', "FILE", kSingle, [&](auto v) { trace_path = v; }},
        {"--trace-format", '=', "json|vcd", kSingle,
         [&](auto v) {
             trace_format = choice("trace format", v, "json", "vcd");
         }},
        {"--jobs", ' ', "K", kAny,
         [&](auto v) { opt.jobs = flagValue<unsigned>("--jobs", v); }},
        {"--fidelity", ' ', "fast|cycle", kAny,
         [&](auto v) {
             opt.fidelityFast =
                 choice("fidelity", v, "fast", "cycle") == "fast";
         }},
        {"--profile", 0, "", kAny, [&](auto) { opt.profile = true; }},
        {"--metrics", '=', "FILE", kAny, [&](auto v) { metrics_path = v; }},
        {"--metrics-format", '=', "jsonl|csv", kAny,
         [&](auto v) {
             opt.metricsCsv =
                 choice("metrics format", v, "jsonl", "csv") == "csv";
         }},
        {"--flows", '=', "FILE", kNodes | kScenario,
         [&](auto v) { flows_path = v; }},
        {"--scenario", '=', "FILE.scn", kAny,
         [&](auto v) { scenario_path = v; }},
        {"--row", '=', "FILE", kScenario, [&](auto v) { row_path = v; }},
        {"--save-at", '=', "MS", kScenario,
         [&](auto v) {
             opt.checkpoints.push_back(
                 {flagValue<double>("--save-at", v), ""});
         }},
        {"--save", '=', "FILE.snap", kScenario,
         [&](auto v) { save_path = v; }},
        {"--restore", '=', "FILE.snap", kScenario,
         [&](auto v) { restore_path = v; }},
    };
    std::vector<const Flag *> given;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto hit = std::find_if(
            std::begin(flags), std::end(flags), [&](const Flag &f) {
                const std::size_t n = std::strlen(f.name);
                return !std::strncmp(arg, f.name, n) &&
                       (f.form == '=' ? arg[n] == '='
                                      : arg[n] == '\0' &&
                                            (!f.form || i + 1 < argc));
            });
        if (hit != std::end(flags)) {
            hit->set(hit->form == '='   ? arg + std::strlen(hit->name) + 1
                     : hit->form == ' ' ? argv[++i]
                                        : nullptr);
            given.push_back(hit);
        } else if (arg[0] == '-') {
            return usage("unknown option %s\n", arg);
        } else {
            path = arg;
        }
    }
    if (!path && scenario_path.empty()) {
        std::fprintf(stderr, "usage: snap-run FILE.s | "
                             "--scenario=FILE.scn");
        for (const Flag &f : flags)
            std::fprintf(stderr, " [%s%s%s]", f.name,
                         f.form == '=' ? "=" : f.form ? " " : "", f.value);
        return usage("\n");
    }
    const unsigned mode = !scenario_path.empty() ? kScenario
                          : prog.nodes > 1       ? kNodes
                                                 : kSingle;
    for (const Flag *f : given)
        if (!(f->modes & mode))
            return usage("%s needs %s\n", f->name, needs(f->modes));
    if (metrics_interval == 0)
        return usage("--metrics-interval must be positive\n");
    if (!save_path.empty() && opt.checkpoints.size() != 1)
        return usage("--save=FILE needs exactly one --save-at=MS\n");
    if (!save_path.empty())
        opt.checkpoints[0].path = save_path;
    if (path) {
        prog.name = path;
        prog.defaults.program = path;
        prog.nodes = std::max<std::size_t>(prog.nodes, 1);
        prog.metricsMs = double(metrics_interval) / double(sim::kMillisecond);
        for (std::size_t i = 0; i < prog.nodes; ++i)
            prog.overrides[i].volts = volts[i % volts.size()];
    }

    std::ofstream metrics_file, flows_file;
    try {
        if (!metrics_path.empty())
            opt.metricsOut = openOut(metrics_path, metrics_file);
        if (!flows_path.empty())
            opt.flowsOut = openOut(flows_path, flows_file);
        const scenario::Scenario sc =
            scenario_path.empty() ? prog
                                  : scenario::loadScenario(scenario_path);
        if (mode != kSingle) {
            snapshot::NetworkSnapshot snap;
            if (!restore_path.empty()) {
                snap = snapshot::readSnapshotFile(restore_path);
                opt.restoreFrom = &snap;
            }
            const auto t0 = std::chrono::steady_clock::now();
            const scenario::RunResult res = scenario::runScenario(sc, opt);
            if (mode == kNodes) {
                printNodes(res, opt.jobs, stats,
                           std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
                return 0;
            }
            const std::string rows = res.rows();
            // A `-` stream owns stdout; keep the report off it so the
            // JSONL pipes clean into snap-trace/snap-report.
            const bool streamed = opt.metricsOut == &std::cout ||
                                  opt.flowsOut == &std::cout;
            std::fputs(rows.c_str(), streamed ? stderr : stdout);
            if (!row_path.empty()) {
                std::ofstream out(row_path);
                sim::fatalIf(!out, "cannot write ", row_path);
                out << rows;
            }
            return 0;
        }

        // Single-machine mode: the --nodes node without its radio, on
        // a network of one shard.
        node::NodeConfig cfg = scenario::nodeConfig(sc, 0, opt);
        cfg.attachRadio = false;
        net::ParallelNetwork net;
        node::SnapNode &n = net.addNode(
            cfg, assembler::assembleSnap(readText(path), path));
        n.core().recordTimeline(timeline);
        n.core().enableProfile(opt.profile);
        if (!trace_path.empty())
            net.enableTracing(/*record=*/true);
        if (opt.metricsOut)
            net.enableMetrics(*opt.metricsOut, metrics_interval,
                              opt.metricsCsv);
        net.start();
        const auto t0 = std::chrono::steady_clock::now();
        net.runFor(sim::fromMs(sc.durationMs));
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        net.finishMetrics();

        for (std::uint16_t v : n.core().debugOut())
            std::printf("dbgout: %u (0x%04x)\n", v, v);
        if (!trace_path.empty()) {
            std::ofstream file;
            std::ostream &out = *openOut(trace_path, file);
            const sim::TraceSink &tracer = *net.nodeTracer(0);
            if (trace_format == "vcd")
                tracer.writeVcd(out);
            else
                tracer.writeChromeJson(out);
            std::printf("trace: %" PRIu64 " events, hash 0x%016" PRIx64
                        " -> %s\n",
                        tracer.eventCount(), tracer.hash(),
                        trace_path.c_str());
        }
        if (stats)
            printStats(n, elapsed);
        if (timeline) {
            std::printf("-- activity timeline (wake .. sleep) --\n");
            for (const auto &span : n.core().timeline()) {
                std::printf("%10.3f us .. %10.3f us  (%6.2f us awake)  "
                            "%s\n",
                            sim::toUs(span.wake), sim::toUs(span.sleep),
                            sim::toUs(span.sleep - span.wake),
                            span.firstEvent == 0xff
                                ? "boot"
                                : ("event " +
                                   std::to_string(span.firstEvent))
                                      .c_str());
            }
        }
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}
