/**
 * @file
 * snap-asm: command-line assembler for the SNAP ISA.
 *
 * Usage: snap-asm FILE.s [--symbols] [--disasm]
 *
 * Assembles the file and prints the IMEM image as hex words; with
 * --symbols also dumps the symbol table, with --disasm a disassembly
 * listing.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "asm/snap_backend.hh"
#include "isa/instruction.hh"

int
main(int argc, char **argv)
{
    using namespace snaple;

    const char *path = nullptr;
    bool symbols = false;
    bool disasm = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--symbols"))
            symbols = true;
        else if (!std::strcmp(argv[i], "--disasm"))
            disasm = true;
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else
            path = argv[i];
    }
    if (!path) {
        std::fprintf(stderr,
                     "usage: snap-asm FILE.s [--symbols] [--disasm]\n");
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    std::ostringstream src;
    src << in.rdbuf();

    assembler::Program prog;
    try {
        prog = assembler::assembleSnap(src.str(), path);
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::printf("; %zu words (%zu bytes) of IMEM, %zu words of DMEM\n",
                prog.imemWords(), prog.imemBytes(), prog.dmem.size());
    if (disasm) {
        std::size_t i = 0;
        while (i < prog.imem.size()) {
            std::uint16_t w = prog.imem[i];
            std::printf("%04zx: %04x", i, w);
            isa::DecodedInst d = isa::decodeFirst(w);
            if (!d.legal) {
                std::printf("       .word 0x%04x\n", w);
                ++i;
                continue;
            }
            std::size_t next = i + 1;
            if (d.twoWord && next < prog.imem.size()) {
                d.imm = prog.imem[next];
                std::printf(" %04x", d.imm);
                ++next;
            } else {
                std::printf("     ");
            }
            std::printf("  %s\n", isa::disassemble(d).c_str());
            i = next;
        }
    } else {
        for (std::size_t i = 0; i < prog.imem.size(); ++i) {
            std::printf("%04x%c", prog.imem[i],
                        (i % 8 == 7) ? '\n' : ' ');
        }
        if (prog.imem.size() % 8)
            std::printf("\n");
    }
    if (symbols) {
        std::printf("; symbols:\n");
        for (const auto &[name, addr] : prog.symbols)
            std::printf(";   %-24s 0x%04x\n", name.c_str(), addr);
    }
    return 0;
}
