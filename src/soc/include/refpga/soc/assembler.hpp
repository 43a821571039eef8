// Two-pass assembler for the soft-core ISA.
//
// Syntax (one statement per line, ';' or '#' start a comment):
//   label:                     define label at current address
//   .org  ADDR                 set assembly address
//   .word VALUE                emit a 32-bit literal
//   .space BYTES               reserve zeroed bytes (no words emitted)
//   add   rd, ra, rb           R-type
//   addi  rd, ra, IMM          I-type (IMM may be a label for lw/sw/addi)
//   beq   ra, rb, LABEL        branch (pc-relative encoding computed)
//   br    LABEL / jr ra / halt
//   get   rd, FSL / put ra, FSL
//   lui   rd, hi(LABEL) ; ori rd, rd, lo(LABEL)   32-bit address loads
// Numbers: decimal or 0x hex; 'hi(x)'/'lo(x)' extract halves of a label or
// literal. An immediate must fit its field (see encode() in isa.hpp):
// [-32768, 32767] for addi/lw/sw and branch offsets, [0, 65535] for
// andi/ori/xori/lui, [0, 31] for shifts, [0, 7] for FSL links.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "refpga/soc/isa.hpp"

namespace refpga::soc {

struct AssemblyError {
    int line = 0;
    std::string message;
};

/// Assembled program: sparse 32-bit words keyed by byte address. `.space`
/// ranges hold no words; they count towards the extent only.
struct Program {
    std::map<std::uint32_t, std::uint32_t> words;
    std::map<std::string, std::uint32_t> labels;
    std::uint32_t extent = 0;  ///< end address of the highest word or reservation

    /// Code+data footprint in bytes (max extent over all sections).
    [[nodiscard]] std::uint32_t size_bytes() const { return extent; }
    [[nodiscard]] std::uint32_t entry() const { return 0; }
};

/// Assembles `source`; throws ContractViolation with the first error's line
/// and message on failure.
[[nodiscard]] Program assemble(const std::string& source);

}  // namespace refpga::soc
