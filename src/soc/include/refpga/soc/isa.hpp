// Instruction set of the soft-core processor (MicroBlaze subset).
//
// 32 general registers (r0 hardwired to zero), 32-bit instructions:
//   R-type:  op(6) rd(5) ra(5) rb(5) pad(11)
//   I-type:  op(6) rd(5) ra(5) imm16  (imm sign-extended unless noted)
// Branches are pc-relative in bytes; LUI loads imm16 << 16; ANDI/ORI/XORI
// zero-extend. GET/PUT move words over Fast Simplex Links, blocking like
// MicroBlaze's fsl instructions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace refpga::soc {

enum class Opcode : std::uint8_t {
    Add,    ///< rd = ra + rb
    Sub,    ///< rd = ra - rb
    Mul,    ///< rd = (ra * rb) low 32
    Mulh,   ///< rd = (ra * rb) high 32, signed
    And,
    Or,
    Xor,
    Sll,    ///< rd = ra << (rb & 31)
    Srl,
    Sra,
    Addi,   ///< rd = ra + imm
    Andi,
    Ori,
    Xori,
    Slli,   ///< rd = ra << imm
    Srli,
    Srai,
    Lui,    ///< rd = imm << 16
    Lw,     ///< rd = mem[ra + imm]
    Sw,     ///< mem[ra + imm] = rd
    Beq,    ///< if ra == rb(rd slot): pc += imm
    Bne,
    Blt,    ///< signed
    Bge,
    Bltu,
    Bgeu,
    Br,     ///< pc += imm
    Brl,    ///< r15 = pc + 4; pc += imm
    Jr,     ///< pc = ra
    Get,    ///< rd = fsl[imm].read(), blocking
    Put,    ///< fsl[imm].write(ra), blocking
    Halt,
};

inline constexpr int kOpcodeCount = static_cast<int>(Opcode::Halt) + 1;

struct Instruction {
    Opcode op = Opcode::Halt;
    std::uint8_t rd = 0;
    std::uint8_t ra = 0;
    std::uint8_t rb = 0;
    std::int32_t imm = 0;  ///< sign-extended; zero-extended for andi/ori/xori/lui
};

/// Throws ContractViolation, naming the mnemonic, the value and its range,
/// when the immediate does not fit its field: [-32768, 32767] for addi, lw,
/// sw and branch offsets, [0, 65535] for andi/ori/xori/lui, [0, 31] for
/// shift amounts and [0, 7] for get/put links.
[[nodiscard]] std::uint32_t encode(const Instruction& insn);
[[nodiscard]] Instruction decode(std::uint32_t word);

[[nodiscard]] std::string_view mnemonic(Opcode op);
[[nodiscard]] std::optional<Opcode> parse_mnemonic(std::string_view text);

/// True for I-type instructions (imm16 field is meaningful).
[[nodiscard]] bool has_immediate(Opcode op);
/// True when the instruction can change control flow.
[[nodiscard]] bool is_branch(Opcode op);

/// Renders one instruction word in assembler syntax. Branch targets are
/// shown as absolute addresses computed from `pc` (the instruction's own
/// address), matching what the assembler would accept back.
[[nodiscard]] std::string disassemble(std::uint32_t word, std::uint32_t pc = 0);

}  // namespace refpga::soc
