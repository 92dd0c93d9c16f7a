/**
 * @file
 * The output of the assembler: memory images plus symbols.
 */

#ifndef SNAPLE_ASM_PROGRAM_HH
#define SNAPLE_ASM_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace snaple::assembler {

/**
 * An assembled program: an instruction-memory image, a data-memory
 * image, and the symbol table. Addresses are word addresses.
 */
struct Program
{
    std::vector<std::uint16_t> imem;
    std::vector<std::uint16_t> dmem;
    std::map<std::string, std::uint32_t> symbols;

    /** Code size in 16-bit words. */
    std::size_t imemWords() const { return imem.size(); }

    /** Code size in bytes (the unit the paper quotes, e.g. "2.8KB"). */
    std::size_t imemBytes() const { return imem.size() * 2; }

    /** Look up a symbol; fatal if undefined. */
    std::uint32_t
    symbol(const std::string &name) const
    {
        auto it = symbols.find(name);
        sim::fatalIf(it == symbols.end(), "undefined symbol: ", name);
        return it->second;
    }
};

} // namespace snaple::assembler

#endif // SNAPLE_ASM_PROGRAM_HH
