#include "ref/listing.hh"

#include <cstdio>

#include "isa/instruction.hh"

namespace snaple::ref {

namespace {

/** Source line for one decoded instruction at @p addr. */
std::string
sourceLine(const isa::DecodedInst &d, std::uint16_t addr)
{
    using isa::Op;
    // disassemble() prints branch displacements; the assembler wants
    // absolute targets. Everything else round-trips as printed.
    if (d.op == Op::Beqz || d.op == Op::Bnez || d.op == Op::Bltz ||
        d.op == Op::Bgez) {
        const char *name = d.op == Op::Beqz   ? "beqz"
                           : d.op == Op::Bnez ? "bnez"
                           : d.op == Op::Bltz ? "bltz"
                                              : "bgez";
        const std::uint16_t target =
            static_cast<std::uint16_t>(addr + 1 + d.off8);
        return std::string(name) + " r" + std::to_string(d.rd) + ", " +
               std::to_string(target);
    }
    return isa::disassemble(d);
}

} // namespace

std::vector<ListedInstr>
decodeListing(const std::vector<std::uint16_t> &imem)
{
    std::vector<ListedInstr> out;
    std::size_t addr = 0;
    while (addr < imem.size()) {
        ListedInstr li;
        li.addr = static_cast<std::uint16_t>(addr);
        li.word = imem[addr];
        isa::DecodedInst d = isa::decodeAt(li.word, addr, imem.size());
        if (d.legal) {
            li.twoWord = d.twoWord;
            if (d.twoWord)
                li.imm = d.imm = imem[addr + 1];
            li.text = sourceLine(d, li.addr);
        } else {
            // Includes a two-word form truncated at the image's end.
            li.valid = false;
            char buf[32];
            std::snprintf(buf, sizeof buf, ".word 0x%04x", li.word);
            li.text = buf;
        }
        addr += li.twoWord ? 2 : 1;
        out.push_back(li);
    }
    return out;
}

std::string
listingSource(const std::vector<ListedInstr> &listing)
{
    std::string src;
    for (const ListedInstr &li : listing) {
        src += li.text;
        src += '\n';
    }
    return src;
}

std::string
formatWindow(const std::vector<std::uint16_t> &imem, std::uint16_t pc,
             int context)
{
    std::vector<ListedInstr> listing = decodeListing(imem);
    // Find the instruction covering pc (or the nearest one after it).
    std::size_t at = listing.size();
    for (std::size_t i = 0; i < listing.size(); ++i) {
        std::uint16_t lo = listing[i].addr;
        std::uint16_t hi =
            static_cast<std::uint16_t>(lo + (listing[i].twoWord ? 1 : 0));
        if (pc >= lo && pc <= hi) {
            at = i;
            break;
        }
    }
    std::string out;
    if (at == listing.size()) {
        char buf[64];
        std::snprintf(buf, sizeof buf,
                      "  (pc 0x%04x outside the decoded image)\n", pc);
        return buf;
    }
    std::size_t first =
        at > static_cast<std::size_t>(context)
            ? at - static_cast<std::size_t>(context)
            : 0;
    std::size_t last = std::min(listing.size(),
                                at + static_cast<std::size_t>(context) +
                                    1);
    for (std::size_t i = first; i < last; ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s0x%04x: ",
                      i == at ? ">> " : "   ", listing[i].addr);
        out += buf;
        out += listing[i].text;
        out += '\n';
    }
    return out;
}

} // namespace snaple::ref
