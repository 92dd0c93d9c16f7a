#include "ref/diff.hh"

#include <cstdio>
#include <string>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "ref/commit_log.hh"
#include "ref/listing.hh"
#include "ref/ref_machine.hh"
#include "sim/kernel.hh"
#include "sim/logging.hh"

namespace snaple::ref {

namespace {

/**
 * The harness's stand-in for the message coprocessor: echo every word
 * the core writes to r15 back into its receive FIFO, xor-tagged so a
 * round trip is visible in the data. Runs forever; the kernel owns the
 * frame and the loop simply stays blocked once traffic stops.
 */
sim::Co<void>
echoProcess(core::Machine &m)
{
    for (;;) {
        std::uint16_t w = co_await m.msgIn().recv();
        co_await m.msgOut().send(static_cast<std::uint16_t>(w ^ 0xA5A5));
    }
}

std::string
hexSeed(std::uint64_t seed)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(seed));
    return buf;
}

/** The exact command line that re-runs this one program. */
std::string
reproCommand(std::uint64_t seed, const DiffConfig &cfg)
{
    std::string cmd = "snap-diff --replay " + hexSeed(seed);
    if (!cfg.anyClass) {
        cmd += " --class ";
        cmd += className(cfg.cls);
    } else if (!cfg.includeSmc) {
        cmd += " --no-smc";
    }
    if (cfg.gen.blocks != GenOptions{}.blocks)
        cmd += " --blocks " + std::to_string(cfg.gen.blocks);
    if (cfg.mutation)
        cmd += " --mutation " + std::to_string(cfg.mutation);
    if (cfg.fidelity == core::FidelityMode::Fast)
        cmd += " --fidelity fast";
    return cmd;
}

const char *
stopName(RefMachine::Stop s)
{
    switch (s) {
    case RefMachine::Stop::Halt:
        return "halt";
    case RefMachine::Stop::EventsExhausted:
        return "events-exhausted";
    case RefMachine::Stop::R15Exhausted:
        return "r15-exhausted";
    case RefMachine::Stop::StepLimit:
        return "step-limit";
    case RefMachine::Stop::DecodeError:
        return "decode-error";
    }
    return "?";
}

void
appendStateDiff(std::string &out, const char *what, unsigned index,
                std::uint16_t coreVal, std::uint16_t refVal)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "  %s%u: core 0x%04x, ref 0x%04x\n",
                  what, index, coreVal, refVal);
    out += buf;
}

} // namespace

DiffOutcome
diffOne(std::uint64_t seed, const DiffConfig &cfg)
{
    DiffOutcome out;
    sim::Rng rng(seed);

    const ProgClass cls = cfg.anyClass ? pickClass(rng, cfg.includeSmc)
                                       : cfg.cls;
    out.cls = cls;
    GenProgram gp = generate(rng, cls, cfg.gen);

    assembler::Program prog;
    try {
        prog = assembler::assembleSnap(gp.source, "gen");
    } catch (const sim::FatalError &e) {
        out.report = std::string("generated program does not assemble (") +
                     e.what() + ")\n  " + reproCommand(seed, cfg) +
                     "\n--- source ---\n" + gp.source;
        return out;
    }

    // --- Timed run on the core, commit log attached. ---
    sim::Kernel kernel;
    core::Machine machine(kernel);
    try {
        machine.load(prog);
    } catch (const sim::FatalError &e) {
        out.report = std::string("generated program does not fit (") +
                     e.what() + ")\n  " + reproCommand(seed, cfg);
        return out;
    }
    CommitSink coreSink;
    machine.core().setCommitSink(&coreSink);
    machine.start(cfg.fidelity);
    if (gp.usesMsgIo)
        kernel.spawn(echoProcess(machine), "r15-echo");

    try {
        kernel.run(cfg.maxSimTime);
    } catch (const sim::FatalError &e) {
        out.report = std::string("core run failed (") + e.what() + ")\n  " +
                     reproCommand(seed, cfg);
        return out;
    }
    out.coreRecords = coreSink.size();
    if (!machine.core().halted()) {
        out.report = "generated program did not halt within " +
                     std::to_string(sim::toMs(cfg.maxSimTime)) +
                     " ms simulated\n  " + reproCommand(seed, cfg);
        return out;
    }

    // --- Replay the observed nondeterminism into the reference. ---
    Injection inj;
    for (const CommitRecord &r : coreSink.log()) {
        if (r.kind == CommitKind::Dispatch) {
            inj.events.push_back(r.event);
        } else {
            for (unsigned i = 0; i < r.fifoReads; ++i)
                inj.r15.push_back(r.fifoRead[i]);
        }
    }

    RefOptions ropt;
    ropt.mutation = cfg.mutation;
    RefMachine ref(prog, ropt);
    CommitSink refSink;
    const RefMachine::Stop stop = ref.run(inj, refSink);
    out.refRecords = refSink.size();

    // --- Lockstep compare. ---
    const auto &cl = coreSink.log();
    const auto &rl = refSink.log();
    const std::size_t n = std::min(cl.size(), rl.size());
    std::size_t firstBad = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (!(cl[i] == rl[i])) {
            firstBad = i;
            break;
        }
    }

    std::string mismatch;
    if (firstBad < n) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "record %zu disagrees:\n",
                      firstBad);
        mismatch = buf;
        mismatch += "  core: " + describe(cl[firstBad]) + "\n";
        mismatch += "  ref : " + describe(rl[firstBad]) + "\n";
    } else if (cl.size() != rl.size()) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "commit streams differ in length: core %zu, ref "
                      "%zu (ref stopped: %s)\n",
                      cl.size(), rl.size(), stopName(stop));
        mismatch = buf;
        const auto &longer = cl.size() > rl.size() ? cl : rl;
        mismatch += std::string("  first extra (") +
                    (cl.size() > rl.size() ? "core" : "ref") +
                    "): " + describe(longer[n]) + "\n";
    } else if (stop != RefMachine::Stop::Halt) {
        mismatch = std::string("reference stopped on ") + stopName(stop) +
                   " instead of halt\n";
    }

    // Belt and braces: the final architectural states must agree even
    // if both executors under-reported some effect in their records.
    std::string stateDiff;
    if (mismatch.empty()) {
        for (unsigned i = 0; i < 15; ++i)
            if (machine.core().reg(i) != ref.reg(i))
                appendStateDiff(stateDiff, "r", i, machine.core().reg(i),
                                ref.reg(i));
        if (machine.core().carry() != ref.carry())
            appendStateDiff(stateDiff, "carry ", 0,
                            machine.core().carry(), ref.carry());
        for (unsigned e = 0; e < isa::kNumEvents; ++e)
            if (machine.core().handler(static_cast<isa::EventNum>(e)) !=
                ref.handlerAt(e))
                appendStateDiff(
                    stateDiff, "handler ", e,
                    machine.core().handler(static_cast<isa::EventNum>(e)),
                    ref.handlerAt(e));
        for (std::uint16_t a = 0; a < machine.dmem().words(); ++a)
            if (machine.dmem().peek(a) != ref.dmemAt(a))
                appendStateDiff(stateDiff, "dmem ", a,
                                machine.dmem().peek(a), ref.dmemAt(a));
        for (std::uint16_t a = 0; a < machine.imem().words(); ++a)
            if (machine.imem().peek(a) != ref.imemAt(a))
                appendStateDiff(stateDiff, "imem ", a,
                                machine.imem().peek(a), ref.imemAt(a));
        const auto &cdbg = machine.core().debugOut();
        const auto &rdbg = ref.dbg();
        if (cdbg != rdbg) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "  dbgout streams differ (core %zu words, ref "
                          "%zu words)\n",
                          cdbg.size(), rdbg.size());
            stateDiff += buf;
        }
        if (!stateDiff.empty())
            stateDiff = "final state disagrees:\n" + stateDiff;
    }

    if (mismatch.empty() && stateDiff.empty()) {
        out.ok = true;
        return out;
    }

    out.divergence = true;
    const std::uint16_t badPc =
        firstBad < n ? cl[firstBad].pc
                     : (n < cl.size() ? cl[n].pc
                                      : (n < rl.size() ? rl[n].pc
                                                       : ref.pc()));
    out.report = "divergence: seed " + hexSeed(seed) + " class " +
                 std::string(className(cls)) +
                 (cfg.mutation
                      ? " (mutation " + std::to_string(cfg.mutation) + ")"
                      : "") +
                 "\n" + mismatch + stateDiff + "listing around pc:\n" +
                 formatWindow(prog.imem, badPc) +
                 "repro: " + reproCommand(seed, cfg) + "\n";
    return out;
}

} // namespace snaple::ref
