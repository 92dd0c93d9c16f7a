/**
 * @file
 * Lockstep differential checker: the core at either fidelity vs the
 * golden model.
 *
 * One diffOne() call is one experiment: a seeded random program is
 * generated, assembled, and run to completion on the timed machine
 * (core::Machine) with a commit sink attached, at the fidelity the
 * config names: the CHP two-process core (cycle) or the predecoded
 * core (fast), each exactly as production runs it. The
 * nondeterministic
 * inputs that run observed — every word dequeued from the r15 FIFO and
 * every event token dispatched at a `done` — are extracted from its
 * commit log and replayed into the untimed reference interpreter
 * (ref::RefMachine). Everything else (ALU results, the carry chain,
 * the LFSR, branches, memory and handler-table state) is recomputed
 * independently, so the two commit streams must match record for
 * record, and the final architectural states must agree.
 *
 * On a mismatch the outcome carries a self-contained report: the first
 * divergent record from both sides, a disassembly window around the
 * divergent pc, and a one-line command that reproduces the exact
 * program.
 */

#ifndef SNAPLE_REF_DIFF_HH
#define SNAPLE_REF_DIFF_HH

#include <cstdint>
#include <string>

#include "core/core.hh"
#include "ref/progen.hh"
#include "sim/ticks.hh"

namespace snaple::ref {

/** One differential experiment's knobs. */
struct DiffConfig
{
    /** Wall limit for the timed run (generated programs finish in
     *  well under a simulated millisecond; timer programs need the
     *  headroom for their countdowns). */
    sim::Tick maxSimTime = sim::fromMs(500);

    /** Seeded bug planted in the *reference* (RefOptions::mutation). */
    unsigned mutation = 0;

    /** Which tier of the core is checked against the reference. */
    core::FidelityMode fidelity = core::FidelityMode::Cycle;

    /** Pick the program class from the seed (default) or fix it. */
    bool anyClass = true;
    bool includeSmc = true; ///< SMC eligible when picking from the seed
    ProgClass cls = ProgClass::Alu; ///< used when !anyClass

    GenOptions gen;
};

/** What one differential experiment produced. */
struct DiffOutcome
{
    bool ok = false;
    /** True when the two executors disagreed (the interesting case);
     *  false with !ok means a harness problem (generated program did
     *  not assemble or did not halt), which is itself a test failure
     *  but not an architectural divergence. */
    bool divergence = false;
    ProgClass cls = ProgClass::Alu;
    std::size_t coreRecords = 0;
    std::size_t refRecords = 0;
    std::string report; ///< non-empty iff !ok; self-contained
};

/** Run one seeded differential experiment. */
DiffOutcome diffOne(std::uint64_t seed, const DiffConfig &cfg = {});

} // namespace snaple::ref

#endif // SNAPLE_REF_DIFF_HH
