#include "ref/ref_machine.hh"

namespace snaple::ref {

namespace {

/** Reference LFSR constants, restated from docs/ISA.md (not shared
 *  with core/lfsr.hh on purpose). */
constexpr std::uint16_t kLfsrTaps = 0xB400;
constexpr std::uint16_t kLfsrDefaultSeed = 0xACE1;
constexpr std::uint16_t kMemWords = 2048;
constexpr unsigned kNumEvents = 7;

} // namespace

RefMachine::RefMachine(const assembler::Program &prog,
                       const RefOptions &opt)
    : imem_(kMemWords, 0), dmem_(kMemWords, 0),
      lfsr_(kLfsrDefaultSeed), opt_(opt)
{
    sim::fatalIf(prog.imem.size() > imem_.size() ||
                     prog.dmem.size() > dmem_.size(),
                 "reference: program image exceeds a memory bank");
    for (std::size_t i = 0; i < prog.imem.size(); ++i)
        imem_[i] = prog.imem[i];
    for (std::size_t i = 0; i < prog.dmem.size(); ++i)
        dmem_[i] = prog.dmem[i];
}

/**
 * One architectural step per loop iteration: fetch, hand-decode,
 * execute, commit. Everything is in this one function so the whole
 * semantics of the ISA can be audited in a single read-through
 * against docs/ISA.md.
 */
RefMachine::Stop
RefMachine::run(Injection &inj, CommitSink &sink)
{
    const unsigned mut = opt_.mutation;

    for (std::uint64_t steps = 0; steps < opt_.maxSteps; ++steps) {
        // ---- fetch -------------------------------------------------
        if (pc_ >= imem_.size())
            return Stop::DecodeError;
        const std::uint16_t w = imem_[pc_];

        // ---- hand-decode (bit layout per docs/ISA.md) --------------
        const unsigned op = (w >> 12) & 0xf;
        const unsigned rd = (w >> 8) & 0xf;
        const unsigned rs = (w >> 4) & 0xf;
        const unsigned fn = w & 0xf;
        const std::int8_t off8 = static_cast<std::int8_t>(w & 0xff);

        enum // local opcode names, values fixed by the ISA layout
        {
            kAluR = 0x0, kAluI = 0x1, kLdw = 0x2, kStw = 0x3,
            kLdi = 0x4, kSti = 0x5, kBeqz = 0x6, kBnez = 0x7,
            kBltz = 0x8, kBgez = 0x9, kJmp = 0xA, kBfs = 0xB,
            kTimer = 0xC, kEvent = 0xD, kSys = 0xE,
        };
        enum // ALU functions
        {
            kAdd = 0, kSub = 1, kAddc = 2, kSubc = 3, kAnd = 4,
            kOr = 5, kXor = 6, kNot = 7, kSll = 8, kSrl = 9,
            kSra = 10, kMov = 11, kNeg = 12, kRand = 13, kSeed = 14,
        };

        const bool two_word =
            op == kAluI || op == kLdw || op == kStw || op == kLdi ||
            op == kSti || op == kBfs || (op == kJmp && fn <= 1);
        std::uint16_t imm = 0;
        std::uint16_t pc_next = static_cast<std::uint16_t>(pc_ + 1);
        if (two_word) {
            if (pc_next >= imem_.size())
                return Stop::DecodeError;
            imm = imem_[pc_next];
            pc_next = static_cast<std::uint16_t>(pc_next + 1);
        }

        CommitRecord rec;
        rec.pc = pc_;
        rec.word = w;
        rec.imm = imm;

        bool r15_dry = false;
        auto readReg = [&](unsigned idx) -> std::uint16_t {
            if (idx == 15) { // message-FIFO window
                if (inj.r15.empty()) {
                    r15_dry = true;
                    return 0;
                }
                std::uint16_t v = inj.r15.front();
                inj.r15.pop_front();
                rec.fifoRead[rec.fifoReads++] = v;
                return v;
            }
            return regs_[idx];
        };
        auto writeReg = [&](unsigned idx, std::uint16_t v) {
            if (idx == 15) {
                rec.fifoWrite = true;
                rec.fifoWriteValue = v;
            } else {
                regs_[idx] = v;
                rec.regWrite = true;
                rec.regIndex = static_cast<std::uint8_t>(idx);
                rec.regValue = v;
            }
        };
        auto setArith = [&](std::uint32_t wide) -> std::uint16_t {
            carry_ = (wide >> 16) & 1;
            return static_cast<std::uint16_t>(wide);
        };

        std::uint16_t new_pc = pc_next;
        bool halted = false;

        // ---- execute -----------------------------------------------
        switch (op) {
          case kAluR:
          case kAluI: {
            const bool immediate = (op == kAluI);
            if (immediate &&
                (fn == kNot || fn == kNeg || fn == kRand || fn == kSeed))
                return Stop::DecodeError;
            // Operand reads in rd-then-rs order (matters when both
            // name r15 and each read pops one injected word).
            std::uint16_t vd = 0;
            if (fn != kNot && fn != kMov && fn != kNeg && fn != kRand &&
                fn != kSeed)
                vd = readReg(rd);
            std::uint16_t b = 0;
            if (immediate)
                b = imm;
            else if (fn != kRand)
                b = readReg(rs);
            if (r15_dry)
                return Stop::R15Exhausted;
            std::uint16_t result = 0;
            switch (fn) {
              case kAdd: {
                std::uint32_t wide = std::uint32_t(vd) + b;
                result = setArith(wide);
                break;
              }
              case kAddc: {
                std::uint32_t cin = (mut == 1) ? 0 : (carry_ ? 1 : 0);
                result = setArith(std::uint32_t(vd) + b + cin);
                break;
              }
              case kSub: {
                // a - b as a + ~b + 1; the carry out is "no borrow".
                std::uint32_t wide =
                    std::uint32_t(vd) + (~b & 0xffffu) + 1;
                result = setArith(wide);
                if (mut == 2)
                    carry_ = !carry_;
                break;
              }
              case kSubc:
                result = setArith(std::uint32_t(vd) + (~b & 0xffffu) +
                                  (carry_ ? 1 : 0));
                break;
              case kAnd: result = vd & b; break;
              case kOr: result = vd | b; break;
              case kXor: result = vd ^ b; break;
              case kNot: result = static_cast<std::uint16_t>(~b); break;
              case kSll:
                result = static_cast<std::uint16_t>(vd << (b & 15));
                break;
              case kSrl:
                result = static_cast<std::uint16_t>(vd >> (b & 15));
                break;
              case kSra:
                if (mut == 3)
                    result = static_cast<std::uint16_t>(vd >> (b & 15));
                else
                    result = static_cast<std::uint16_t>(
                        static_cast<std::int16_t>(vd) >> (b & 15));
                break;
              case kMov: result = b; break;
              case kNeg:
                result = static_cast<std::uint16_t>(-b);
                break;
              case kRand: {
                const std::uint16_t taps =
                    (mut == 5) ? 0xA001 : kLfsrTaps;
                std::uint16_t lsb = lfsr_ & 1u;
                lfsr_ = static_cast<std::uint16_t>(lfsr_ >> 1);
                if (lsb)
                    lfsr_ ^= taps;
                result = lfsr_;
                break;
              }
              case kSeed:
                lfsr_ = b ? b : kLfsrDefaultSeed;
                break;
              default:
                return Stop::DecodeError;
            }
            if (fn != kSeed)
                writeReg(rd, result);
            break;
          }

          case kLdw:
          case kLdi: {
            std::uint16_t vs = readReg(rs);
            if (r15_dry)
                return Stop::R15Exhausted;
            std::uint16_t addr = static_cast<std::uint16_t>(vs + imm);
            const auto &bank = (op == kLdw) ? dmem_ : imem_;
            if (addr >= bank.size())
                return Stop::DecodeError;
            writeReg(rd, bank[addr]);
            break;
          }

          case kStw:
          case kSti: {
            std::uint16_t vd = readReg(rd);
            std::uint16_t vs = readReg(rs);
            if (r15_dry)
                return Stop::R15Exhausted;
            std::uint16_t addr = static_cast<std::uint16_t>(vs + imm);
            auto &bank = (op == kStw) ? dmem_ : imem_;
            if (addr >= bank.size())
                return Stop::DecodeError;
            bank[addr] = vd;
            rec.memWrite = true;
            rec.memIsImem = (op == kSti);
            rec.memAddr = addr;
            rec.memValue = vd;
            break;
          }

          case kBeqz:
          case kBnez:
          case kBltz:
          case kBgez: {
            std::uint16_t vd = readReg(rd);
            if (r15_dry)
                return Stop::R15Exhausted;
            const std::int16_t sv = static_cast<std::int16_t>(vd);
            const bool taken = (op == kBeqz && vd == 0) ||
                               (op == kBnez && vd != 0) ||
                               (op == kBltz && sv < 0) ||
                               (op == kBgez && sv >= 0);
            if (taken) {
                const std::uint16_t base =
                    (mut == 6) ? pc_ : pc_next;
                new_pc = static_cast<std::uint16_t>(base + off8);
            }
            break;
          }

          case kJmp:
            switch (fn) {
              case 0: // jmp imm16
                new_pc = imm;
                break;
              case 1: // jal rd, imm16
                writeReg(rd, pc_next);
                new_pc = imm;
                break;
              case 2: { // jr rs
                std::uint16_t vs = readReg(rs);
                if (r15_dry)
                    return Stop::R15Exhausted;
                new_pc = vs;
                break;
              }
              case 3: { // jalr rd, rs
                std::uint16_t vs = readReg(rs);
                if (r15_dry)
                    return Stop::R15Exhausted;
                writeReg(rd, pc_next);
                new_pc = vs;
                break;
              }
              default:
                return Stop::DecodeError;
            }
            break;

          case kBfs: {
            std::uint16_t vd = readReg(rd);
            std::uint16_t vs = readReg(rs);
            if (r15_dry)
                return Stop::R15Exhausted;
            const std::uint16_t mask =
                (mut == 4) ? static_cast<std::uint16_t>(~imm) : imm;
            writeReg(rd, static_cast<std::uint16_t>((vd & ~mask) |
                                                    (vs & mask)));
            break;
          }

          case kTimer: {
            if (fn > 2)
                return Stop::DecodeError;
            std::uint16_t vd = readReg(rd);
            std::uint16_t vs = (fn != 2) ? readReg(rs) : 0;
            if (r15_dry)
                return Stop::R15Exhausted;
            if (vd > 2)
                return Stop::DecodeError;
            rec.timerCmd = true;
            rec.timerFn = static_cast<std::uint8_t>(fn);
            rec.timerReg = static_cast<std::uint8_t>(vd);
            rec.timerValue = vs;
            break;
          }

          case kEvent:
            if (fn == 0) { // done: commit, then dispatch a token
                rec.carry = carry_;
                sink.commit(rec);
                if (inj.events.empty()) {
                    pc_ = new_pc;
                    return Stop::EventsExhausted;
                }
                const std::uint8_t ev = inj.events.front();
                inj.events.pop_front();
                if (ev >= kNumEvents)
                    return Stop::DecodeError;
                CommitRecord disp;
                disp.kind = CommitKind::Dispatch;
                disp.event = ev;
                disp.pc = handlers_[ev];
                sink.commit(disp);
                pc_ = handlers_[ev];
                continue;
            } else if (fn == 1) { // setaddr
                std::uint16_t vd = readReg(rd);
                std::uint16_t vs = readReg(rs);
                if (r15_dry)
                    return Stop::R15Exhausted;
                if (vd >= kNumEvents)
                    return Stop::DecodeError;
                const unsigned idx =
                    (mut == 7) ? (vd + 1) % kNumEvents : vd;
                handlers_[idx] = vs;
            } else {
                return Stop::DecodeError;
            }
            break;

          case kSys:
            switch (fn) {
              case 0: // nop
                break;
              case 1: // halt
                halted = true;
                break;
              case 2: { // dbgout
                std::uint16_t vd = readReg(rd);
                if (r15_dry)
                    return Stop::R15Exhausted;
                dbg_.push_back(vd);
                break;
              }
              default:
                return Stop::DecodeError;
            }
            break;

          default: // Op::Reserved
            return Stop::DecodeError;
        }

        // ---- commit ------------------------------------------------
        rec.carry = carry_;
        sink.commit(rec);
        pc_ = new_pc;
        if (halted)
            return Stop::Halt;
    }
    return Stop::StepLimit;
}

} // namespace snaple::ref
