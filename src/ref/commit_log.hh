/**
 * @file
 * Per-retired-instruction commit records for differential co-simulation.
 *
 * Both executors of the SNAP ISA — the machine model (core::SnapCore,
 * at either fidelity) and the architectural reference interpreter
 * (ref::RefMachine) — emit one CommitRecord per retired instruction
 * plus one per event-handler dispatch into a CommitSink. The lockstep
 * checker (ref/diff.hh) compares the two streams record by record; the
 * first mismatch is an architectural divergence.
 *
 * A record captures every architecturally visible effect of one
 * instruction: the register write-back, the carry flag after
 * execution, memory writes (either bank), r15 FIFO traffic, and timer
 * commands handed to the coprocessor. Control flow needs no explicit
 * field — a wrong branch shows up as a wrong `pc` on the next record.
 *
 * This header is deliberately free-standing (no core/sim includes
 * beyond <cstdint>) so the core can emit records without linking the
 * reference library.
 */

#ifndef SNAPLE_REF_COMMIT_LOG_HH
#define SNAPLE_REF_COMMIT_LOG_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace snaple::ref {

/** What one commit record describes. */
enum class CommitKind : std::uint8_t
{
    Instr,    ///< one retired instruction
    Dispatch, ///< an event token dispatched to its handler
};

/** Architecturally visible effects of one retirement. */
struct CommitRecord
{
    CommitKind kind = CommitKind::Instr;
    std::uint16_t pc = 0;   ///< instruction address (Dispatch: handler pc)
    std::uint16_t word = 0; ///< first instruction word (Dispatch: 0)
    std::uint16_t imm = 0;  ///< trailing immediate for two-word forms
    std::uint8_t event = 0xff; ///< Dispatch: event number

    bool carry = false;     ///< carry flag after the instruction

    bool regWrite = false;  ///< register-file write-back happened
    std::uint8_t regIndex = 0;
    std::uint16_t regValue = 0;

    bool memWrite = false;  ///< stw/sti store happened
    bool memIsImem = false;
    std::uint16_t memAddr = 0;
    std::uint16_t memValue = 0;

    std::uint8_t fifoReads = 0; ///< r15 dequeues this instruction (0..2)
    std::array<std::uint16_t, 2> fifoRead{};
    bool fifoWrite = false;     ///< r15 enqueue happened
    std::uint16_t fifoWriteValue = 0;

    bool timerCmd = false;  ///< a command was sent to the timer coproc
    std::uint8_t timerFn = 0;
    std::uint8_t timerReg = 0;
    std::uint16_t timerValue = 0;

    friend bool operator==(const CommitRecord &,
                           const CommitRecord &) = default;
};

/** One-line human-readable rendering (divergence reports). */
inline std::string
describe(const CommitRecord &r)
{
    char buf[192];
    if (r.kind == CommitKind::Dispatch) {
        std::snprintf(buf, sizeof buf,
                      "dispatch event %u -> handler 0x%04x",
                      unsigned(r.event), r.pc);
        return buf;
    }
    std::string s;
    std::snprintf(buf, sizeof buf, "pc 0x%04x word 0x%04x", r.pc, r.word);
    s = buf;
    if (r.imm) {
        std::snprintf(buf, sizeof buf, " imm 0x%04x", r.imm);
        s += buf;
    }
    if (r.regWrite) {
        std::snprintf(buf, sizeof buf, " | r%u <- 0x%04x",
                      unsigned(r.regIndex), r.regValue);
        s += buf;
    }
    if (r.memWrite) {
        std::snprintf(buf, sizeof buf, " | %s[0x%04x] <- 0x%04x",
                      r.memIsImem ? "imem" : "dmem", r.memAddr,
                      r.memValue);
        s += buf;
    }
    for (unsigned i = 0; i < r.fifoReads; ++i) {
        std::snprintf(buf, sizeof buf, " | r15.rd 0x%04x", r.fifoRead[i]);
        s += buf;
    }
    if (r.fifoWrite) {
        std::snprintf(buf, sizeof buf, " | r15.wr 0x%04x",
                      r.fifoWriteValue);
        s += buf;
    }
    if (r.timerCmd) {
        std::snprintf(buf, sizeof buf, " | timer fn%u t%u 0x%04x",
                      unsigned(r.timerFn), unsigned(r.timerReg),
                      r.timerValue);
        s += buf;
    }
    s += r.carry ? " | C=1" : " | C=0";
    return s;
}

/** Collects a commit stream from one executor. */
class CommitSink
{
  public:
    void commit(const CommitRecord &r) { log_.push_back(r); }

    const std::vector<CommitRecord> &log() const { return log_; }
    std::size_t size() const { return log_.size(); }
    void clear() { log_.clear(); }

  private:
    std::vector<CommitRecord> log_;
};

} // namespace snaple::ref

#endif // SNAPLE_REF_COMMIT_LOG_HH
