/**
 * @file
 * The golden model: an untimed architectural interpreter of the full
 * SNAP 16-bit ISA.
 *
 * RefMachine is a deliberately independent second implementation of
 * the instruction semantics — it shares only the encoding constants of
 * isa/isa.hh with the CHP machine model, hand-decodes every field from
 * the raw bit layout itself, and re-implements the ALU, carry chain,
 * LFSR, bfs merge and control flow from the ISA document
 * (docs/ISA.md). Anything the two implementations *could* share is a
 * bug class the differential checker would then be blind to.
 *
 * Time does not exist here. The nondeterministic inputs of a real run
 * — words dequeued from the r15 message FIFO, and which event token is
 * dispatched at each `done` — are supplied through an Injection, so the
 * checker can replay the inputs the CHP core observed and compare the
 * architectural outputs (see ref/diff.hh).
 *
 * A nonzero `mutation` plants a known semantic bug (wrong carry
 * polarity, shift mishandling, LFSR taps, ...) used to prove the
 * differential harness actually detects divergences. Both fidelity
 * tiers of the core are checked against this one interpreter, so a
 * seeded bug here must be caught on either side.
 */

#ifndef SNAPLE_REF_REF_MACHINE_HH
#define SNAPLE_REF_REF_MACHINE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "asm/program.hh"
#include "ref/commit_log.hh"

namespace snaple::ref {

/** Nondeterministic inputs replayed into the reference. */
struct Injection
{
    std::deque<std::uint16_t> r15;    ///< values returned by r15 reads
    std::deque<std::uint8_t> events;  ///< tokens dispatched at `done`
};

/** Knobs for one reference run. */
struct RefOptions
{
    std::uint64_t maxSteps = 2000000; ///< runaway guard

    /**
     * Seeded-bug selector, 0 = faithful. Each id is one plausible
     * implementation mistake:
     *   1  addc ignores carry-in
     *   2  sub computes borrow instead of no-borrow carry
     *   3  sra shifts in zeros (implemented as srl)
     *   4  bfs merges through the complemented mask
     *   5  LFSR uses the wrong tap polynomial
     *   6  branch displacement relative to pc instead of pc+1
     *   7  setaddr writes the neighboring handler-table entry
     */
    unsigned mutation = 0;
};

/** Untimed architectural interpreter of the SNAP ISA. */
class RefMachine
{
  public:
    /** Why run() returned. */
    enum class Stop
    {
        Halt,            ///< `halt` retired
        EventsExhausted, ///< `done` with no injected token left
        R15Exhausted,    ///< r15 read with no injected word left
        StepLimit,       ///< maxSteps retirements without halting
        DecodeError,     ///< illegal encoding reached
    };

    explicit RefMachine(const assembler::Program &prog,
                        const RefOptions &opt = {});

    /** Interpret until a stop condition, committing into @p sink. */
    Stop run(Injection &inj, CommitSink &sink);

    /** @name Architectural state (tests) */
    ///@{
    std::uint16_t reg(unsigned i) const { return regs_.at(i); }
    void setReg(unsigned i, std::uint16_t v) { regs_.at(i) = v; }
    bool carry() const { return carry_; }
    void setCarry(bool c) { carry_ = c; }
    std::uint16_t pc() const { return pc_; }
    std::uint16_t dmemAt(std::uint16_t a) const { return dmem_.at(a); }
    std::uint16_t imemAt(std::uint16_t a) const { return imem_.at(a); }
    std::uint16_t handlerAt(unsigned e) const { return handlers_.at(e); }
    const std::vector<std::uint16_t> &dbg() const { return dbg_; }
    ///@}

  private:
    std::vector<std::uint16_t> imem_;
    std::vector<std::uint16_t> dmem_;
    std::array<std::uint16_t, 15> regs_{};
    std::array<std::uint16_t, 7> handlers_{};
    std::vector<std::uint16_t> dbg_;
    std::uint16_t pc_ = 0;
    std::uint16_t lfsr_;
    bool carry_ = false;
    RefOptions opt_;
};

} // namespace snaple::ref

#endif // SNAPLE_REF_REF_MACHINE_HH
