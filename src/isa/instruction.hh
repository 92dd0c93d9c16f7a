/**
 * @file
 * Decoded-instruction representation, encoders and the decoder.
 */

#ifndef SNAPLE_ISA_INSTRUCTION_HH
#define SNAPLE_ISA_INSTRUCTION_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "isa/isa.hh"

namespace snaple::isa {

/**
 * A fully decoded SNAP instruction, together with the semantic
 * properties the core needs (operand usage, target unit, statistics
 * class).
 */
struct DecodedInst
{
    Op op = Op::Sys;
    std::uint8_t fn = 0;    ///< raw sub-function field
    std::uint8_t rd = 0;
    std::uint8_t rs = 0;
    std::int8_t off8 = 0;   ///< branch word displacement
    std::uint16_t imm = 0;  ///< trailing immediate (two-word forms)
    bool twoWord = false;
    /** False for an unassigned encoding (docs/ISA.md, "Illegal
     *  encodings"; the golden model's rule, ref/ref_machine.cc). One
     *  that still reads rd (ALU function 15) reads its operands, so
     *  r15 operands pop message words, before it is rejected; every
     *  other one reads nothing. */
    bool legal = true;

    // Semantic summary, filled by decodeFirst().
    bool readsRd = false;
    bool readsRs = false;
    bool writesRd = false;
    Unit unit = Unit::Logic;
    InstrClass cls = InstrClass::Sys;

    AluFn aluFn() const { return static_cast<AluFn>(fn); }
    JmpFn jmpFn() const { return static_cast<JmpFn>(fn); }
    TimerFn timerFn() const { return static_cast<TimerFn>(fn); }
    EventFn eventFn() const { return static_cast<EventFn>(fn); }
    SysFn sysFn() const { return static_cast<SysFn>(fn); }

    /** The first word this was decoded from (a branch's off8 shares
     *  the rs and fn bits). */
    std::uint16_t
    word() const
    {
        return static_cast<std::uint16_t>(
            (static_cast<std::uint16_t>(op) << 12) | ((rd & 0xf) << 8) |
            ((rs & 0xf) << 4) | (fn & 0xf));
    }

    /** True for control-transfer instructions (fetch must wait). */
    bool
    isControl() const
    {
        return op == Op::Beqz || op == Op::Bnez || op == Op::Bltz ||
               op == Op::Bgez || op == Op::Jmp ||
               (op == Op::Event && eventFn() == EventFn::Done) ||
               (op == Op::Sys && sysFn() == SysFn::Halt);
    }
};

/**
 * Decode the first word of an instruction. For two-word forms the
 * caller must fetch the next word and store it into @c imm. Never
 * throws: an unassigned encoding decodes with @c legal false, its
 * fields extracted and, for ALU function 15, the operands it reads.
 */
DecodedInst decodeFirst(std::uint16_t word);

/**
 * decodeFirst() for the word at @p pc of an @p imemWords-word IMEM:
 * a two-word form whose immediate would lie past the end of IMEM is
 * illegal, rejected before any operand read. What both fidelity
 * tiers execute.
 */
DecodedInst decodeAt(std::uint16_t word, std::size_t pc,
                     std::size_t imemWords);

/** @name Encoders (used by the assembler and tests) */
///@{
std::uint16_t encodeAluR(AluFn fn, std::uint8_t rd, std::uint8_t rs);
std::uint16_t encodeAluI(AluFn fn, std::uint8_t rd);
std::uint16_t encodeMem(Op op, std::uint8_t rd, std::uint8_t rs);
std::uint16_t encodeBranch(Op op, std::uint8_t rd, std::int8_t off8);
std::uint16_t encodeJmp(JmpFn fn, std::uint8_t rd, std::uint8_t rs);
std::uint16_t encodeBfs(std::uint8_t rd, std::uint8_t rs);
std::uint16_t encodeTimer(TimerFn fn, std::uint8_t rd, std::uint8_t rs);
std::uint16_t encodeEvent(EventFn fn, std::uint8_t rd, std::uint8_t rs);
std::uint16_t encodeSys(SysFn fn, std::uint8_t rd);
///@}

/**
 * Disassemble one instruction (pass the immediate for two-word forms).
 */
std::string disassemble(const DecodedInst &inst);

} // namespace snaple::isa

#endif // SNAPLE_ISA_INSTRUCTION_HH
