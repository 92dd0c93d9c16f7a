#include "isa/instruction.hh"

#include "sim/logging.hh"

namespace snaple::isa {

namespace {

constexpr std::uint16_t
pack(Op op, std::uint8_t rd, std::uint8_t rs, std::uint8_t fn)
{
    return static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(op) << 12) |
        ((rd & 0xf) << 8) | ((rs & 0xf) << 4) | (fn & 0xf));
}

/** Mark @p d rejected before any operand read: it reads, writes and
 *  fetches nothing more. */
DecodedInst &
reject(DecodedInst &d)
{
    d.legal = false;
    d.twoWord = d.readsRd = d.readsRs = d.writesRd = false;
    d.unit = Unit::Logic;
    d.cls = InstrClass::Sys;
    return d;
}

/** Fill in operand-usage / unit / class summary for an ALU operation. */
void
summarizeAlu(DecodedInst &d, bool immediate)
{
    const AluFn fn = d.aluFn();
    if (d.fn == 15) {
        // Unassigned, but only noticed after the operand reads.
        d.legal = false;
        d.readsRd = true;
        d.readsRs = !immediate;
        return;
    }
    if (immediate && (fn == AluFn::Not || fn == AluFn::Neg ||
                      fn == AluFn::Rand || fn == AluFn::Seed)) {
        reject(d);
        return;
    }
    switch (fn) {
      case AluFn::Add:
      case AluFn::Sub:
      case AluFn::Addc:
      case AluFn::Subc:
        d.readsRd = true;
        d.unit = Unit::Adder;
        d.cls = immediate ? InstrClass::ArithImm : InstrClass::ArithReg;
        break;
      case AluFn::And:
      case AluFn::Or:
      case AluFn::Xor:
        d.readsRd = true;
        d.unit = Unit::Logic;
        d.cls = immediate ? InstrClass::LogicalImm : InstrClass::LogicalReg;
        break;
      case AluFn::Not:
        d.unit = Unit::Logic;
        d.cls = immediate ? InstrClass::LogicalImm : InstrClass::LogicalReg;
        break;
      case AluFn::Sll:
      case AluFn::Srl:
      case AluFn::Sra:
        d.readsRd = true;
        d.unit = Unit::Shifter;
        d.cls = immediate ? InstrClass::ShiftImm : InstrClass::Shift;
        break;
      case AluFn::Mov:
        d.unit = Unit::Adder;
        d.cls = immediate ? InstrClass::ArithImm : InstrClass::ArithReg;
        break;
      case AluFn::Neg:
        d.unit = Unit::Adder;
        d.cls = immediate ? InstrClass::ArithImm : InstrClass::ArithReg;
        break;
      case AluFn::Rand:
      case AluFn::Seed:
        d.unit = Unit::Lfsr;
        d.cls = InstrClass::Rand;
        break;
    }
    d.writesRd = (fn != AluFn::Seed);
    if (immediate) {
        d.readsRs = false;
    } else {
        d.readsRs = (fn != AluFn::Rand);
        if (fn == AluFn::Seed)
            d.readsRd = false;
    }
}

} // namespace

DecodedInst
decodeFirst(std::uint16_t word)
{
    DecodedInst d;
    d.op = static_cast<Op>((word >> 12) & 0xf);
    d.rd = (word >> 8) & 0xf;
    d.rs = (word >> 4) & 0xf;
    d.fn = word & 0xf;
    d.off8 = static_cast<std::int8_t>(word & 0xff);

    switch (d.op) {
      case Op::AluR:
        summarizeAlu(d, false);
        break;
      case Op::AluI:
        d.twoWord = true;
        summarizeAlu(d, true);
        break;
      case Op::Ldw:
        d.twoWord = true;
        d.readsRs = true;
        d.writesRd = true;
        d.unit = Unit::LdStD;
        d.cls = InstrClass::Load;
        break;
      case Op::Stw:
        d.twoWord = true;
        d.readsRd = true;
        d.readsRs = true;
        d.unit = Unit::LdStD;
        d.cls = InstrClass::Store;
        break;
      case Op::Ldi:
        d.twoWord = true;
        d.readsRs = true;
        d.writesRd = true;
        d.unit = Unit::LdStI;
        d.cls = InstrClass::LoadI;
        break;
      case Op::Sti:
        d.twoWord = true;
        d.readsRd = true;
        d.readsRs = true;
        d.unit = Unit::LdStI;
        d.cls = InstrClass::StoreI;
        break;
      case Op::Beqz:
      case Op::Bnez:
      case Op::Bltz:
      case Op::Bgez:
        d.readsRd = true;
        d.unit = Unit::Branch;
        d.cls = InstrClass::Branch;
        break;
      case Op::Jmp:
        switch (d.jmpFn()) {
          case JmpFn::Jmp:
            d.twoWord = true;
            break;
          case JmpFn::Jal:
            d.twoWord = true;
            d.writesRd = true;
            break;
          case JmpFn::Jr:
            d.readsRs = true;
            break;
          case JmpFn::Jalr:
            d.readsRs = true;
            d.writesRd = true;
            break;
          default:
            return reject(d);
        }
        d.unit = Unit::Branch;
        d.cls = InstrClass::Jump;
        break;
      case Op::Bfs:
        d.twoWord = true;
        d.readsRd = true;
        d.readsRs = true;
        d.writesRd = true;
        d.unit = Unit::Logic;
        d.cls = InstrClass::BitField;
        break;
      case Op::Timer:
        switch (d.timerFn()) {
          case TimerFn::SchedHi:
          case TimerFn::SchedLo:
            d.readsRd = true;
            d.readsRs = true;
            break;
          case TimerFn::Cancel:
            d.readsRd = true;
            break;
          default:
            return reject(d);
        }
        d.unit = Unit::TimerIf;
        d.cls = InstrClass::Timer;
        break;
      case Op::Event:
        switch (d.eventFn()) {
          case EventFn::Done:
            break;
          case EventFn::SetAddr:
            d.readsRd = true;
            d.readsRs = true;
            break;
          default:
            return reject(d);
        }
        d.unit = Unit::Branch;
        d.cls = InstrClass::EventCtl;
        break;
      case Op::Sys:
        switch (d.sysFn()) {
          case SysFn::Nop:
          case SysFn::Halt:
            break;
          case SysFn::DbgOut:
            d.readsRd = true;
            break;
          default:
            return reject(d);
        }
        d.unit = Unit::Logic;
        d.cls = InstrClass::Sys;
        break;
      default:
        return reject(d);
    }
    return d;
}

DecodedInst
decodeAt(std::uint16_t word, std::size_t pc, std::size_t imemWords)
{
    DecodedInst d = decodeFirst(word);
    if (d.twoWord && pc + 1 >= imemWords)
        reject(d);
    return d;
}

std::uint16_t
encodeAluR(AluFn fn, std::uint8_t rd, std::uint8_t rs)
{
    return pack(Op::AluR, rd, rs, static_cast<std::uint8_t>(fn));
}

std::uint16_t
encodeAluI(AluFn fn, std::uint8_t rd)
{
    return pack(Op::AluI, rd, 0, static_cast<std::uint8_t>(fn));
}

std::uint16_t
encodeMem(Op op, std::uint8_t rd, std::uint8_t rs)
{
    sim::panicIf(op != Op::Ldw && op != Op::Stw && op != Op::Ldi &&
                     op != Op::Sti,
                 "encodeMem with non-memory opcode");
    return pack(op, rd, rs, 0);
}

std::uint16_t
encodeBranch(Op op, std::uint8_t rd, std::int8_t off8)
{
    sim::panicIf(op != Op::Beqz && op != Op::Bnez && op != Op::Bltz &&
                     op != Op::Bgez,
                 "encodeBranch with non-branch opcode");
    return static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(op) << 12) | ((rd & 0xf) << 8) |
        (static_cast<std::uint8_t>(off8)));
}

std::uint16_t
encodeJmp(JmpFn fn, std::uint8_t rd, std::uint8_t rs)
{
    return pack(Op::Jmp, rd, rs, static_cast<std::uint8_t>(fn));
}

std::uint16_t
encodeBfs(std::uint8_t rd, std::uint8_t rs)
{
    return pack(Op::Bfs, rd, rs, 0);
}

std::uint16_t
encodeTimer(TimerFn fn, std::uint8_t rd, std::uint8_t rs)
{
    return pack(Op::Timer, rd, rs, static_cast<std::uint8_t>(fn));
}

std::uint16_t
encodeEvent(EventFn fn, std::uint8_t rd, std::uint8_t rs)
{
    return pack(Op::Event, rd, rs, static_cast<std::uint8_t>(fn));
}

std::uint16_t
encodeSys(SysFn fn, std::uint8_t rd)
{
    return pack(Op::Sys, rd, 0, static_cast<std::uint8_t>(fn));
}

} // namespace snaple::isa
