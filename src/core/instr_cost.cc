#include "core/instr_cost.hh"

namespace snaple::core {

using energy::Cat;
using isa::Op;

InstrCost
instrCost(const isa::DecodedInst &d, const NodeContext &ctx)
{
    const energy::TimingCal &t = ctx.tcal;
    const energy::EnergyCal &e = ctx.ecal;
    InstrCost c;
    c.words = d.twoWord ? 2 : 1;
    c.control = d.isControl();
    c.cls = d.cls;

    const auto pay = [&c](Cat cat, double pj) {
        c.pj[static_cast<std::size_t>(cat)] += pj;
    };
    const auto wait = [&](double gd) { c.exec[c.accesses] += ctx.gd(gd); };
    const auto access = [&c] { ++c.accesses; };

    // Fetch process, per word: the fetch logic, then an IMEM read.
    c.fetchPerWord = ctx.gd(t.fetchCycleGd) + ctx.gd(t.imemReadGd);
    for (int w = 0; w < c.words; ++w) {
        pay(Cat::Fetch, e.fetchPerWordPj);
        pay(Cat::MemIf, e.memIfPerWordPj);
        pay(Cat::Imem, e.imemReadPj);
    }

    // Execute process: decode, operand reads, the unit round trip with
    // any memory access or timer command inside it, write-back.
    wait(t.decodeGd);
    pay(Cat::Decode, e.decodePj);
    pay(Cat::Misc, e.miscPj);
    const auto read = [&](std::uint8_t r) {
        if (r == isa::kMsgReg) {
            pay(Cat::Coproc, e.msgWordPj);
            access();
        } else {
            wait(t.regReadGd);
            pay(Cat::Datapath, e.regReadPj);
        }
    };
    if (d.readsRd)
        read(d.rd);
    if (d.readsRs)
        read(d.rs);

    const bool unit = usesUnit(d);
    const OpCost bus = unit ? busCost(ctx, d.unit) : OpCost{};
    if (unit) {
        const OpCost op = unitCost(ctx, d.unit);
        wait(bus.gd);
        pay(Cat::Datapath, bus.pj);
        wait(op.gd);
        pay(Cat::Datapath, op.pj);
    }
    switch (d.op) {
      case Op::Ldw:
        wait(t.dmemReadGd);
        pay(Cat::Dmem, e.dmemReadPj);
        break;
      case Op::Stw:
        wait(t.dmemWriteGd);
        pay(Cat::Dmem, e.dmemWritePj);
        break;
      case Op::Ldi:
        wait(t.imemReadGd);
        pay(Cat::Imem, e.imemReadPj);
        break;
      case Op::Sti:
        wait(t.imemWriteGd);
        pay(Cat::Imem, e.imemWritePj);
        break;
      case Op::Timer:
        access();
        break;
      default:
        break;
    }
    if (unit) {
        wait(bus.gd);
        pay(Cat::Datapath, bus.pj);
    }
    if (d.writesRd) {
        if (d.rd == isa::kMsgReg) {
            pay(Cat::Coproc, e.msgWordPj);
            access();
        } else {
            wait(t.regWriteGd);
            pay(Cat::Datapath, e.regWritePj);
        }
    }
    return c;
}

} // namespace snaple::core
