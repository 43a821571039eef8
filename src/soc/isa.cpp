#include "refpga/soc/isa.hpp"

#include <array>
#include <string>

#include "refpga/common/contracts.hpp"

namespace refpga::soc {

namespace {
constexpr std::array<std::string_view, kOpcodeCount> kMnemonics{
    "add",  "sub",  "mul",  "mulh", "and",  "or",   "xor",  "sll",
    "srl",  "sra",  "addi", "andi", "ori",  "xori", "slli", "srli",
    "srai", "lui",  "lw",   "sw",   "beq",  "bne",  "blt",  "bge",
    "bltu", "bgeu", "br",   "brl",  "jr",   "get",  "put",  "halt",
};

/// The values an instruction's immediate field holds.
struct ImmediateRange {
    std::int32_t min = 0;
    std::int32_t max = 0;
};

ImmediateRange immediate_range(Opcode op) {
    switch (op) {
        case Opcode::Andi:
        case Opcode::Ori:
        case Opcode::Xori:
        case Opcode::Lui: return {0, 65535};
        case Opcode::Slli:
        case Opcode::Srli:
        case Opcode::Srai: return {0, 31};
        case Opcode::Get:
        case Opcode::Put: return {0, 7};
        default: return {-32768, 32767};  // addi, lw, sw, branch offsets
    }
}

}  // namespace

std::uint32_t encode(const Instruction& insn) {
    const auto op = static_cast<std::uint32_t>(insn.op);
    REFPGA_EXPECTS(op < 64 && insn.rd < 32 && insn.ra < 32 && insn.rb < 32);
    std::uint32_t word = (op << 26) | (std::uint32_t{insn.rd} << 21) |
                         (std::uint32_t{insn.ra} << 16);
    if (has_immediate(insn.op)) {
        const ImmediateRange range = immediate_range(insn.op);
        if (insn.imm < range.min || insn.imm > range.max)
            throw ContractViolation(std::string(mnemonic(insn.op)) + " immediate " +
                                    std::to_string(insn.imm) + " outside [" +
                                    std::to_string(range.min) + ", " +
                                    std::to_string(range.max) + "]");
        word |= static_cast<std::uint32_t>(insn.imm) & 0xFFFFu;
    } else {
        word |= std::uint32_t{insn.rb} << 11;
    }
    return word;
}

Instruction decode(std::uint32_t word) {
    Instruction insn;
    const auto op = (word >> 26) & 0x3F;
    REFPGA_EXPECTS(op < kOpcodeCount);
    insn.op = static_cast<Opcode>(op);
    insn.rd = static_cast<std::uint8_t>((word >> 21) & 0x1F);
    insn.ra = static_cast<std::uint8_t>((word >> 16) & 0x1F);
    if (has_immediate(insn.op)) {
        const std::uint32_t field = word & 0xFFFFu;
        const bool zero_extend = immediate_range(insn.op).max == 65535;
        insn.imm = zero_extend ? static_cast<std::int32_t>(field)
                               : static_cast<std::int16_t>(field);
    } else {
        insn.rb = static_cast<std::uint8_t>((word >> 11) & 0x1F);
    }
    return insn;
}

std::string_view mnemonic(Opcode op) {
    return kMnemonics[static_cast<std::size_t>(op)];
}

std::optional<Opcode> parse_mnemonic(std::string_view text) {
    for (int i = 0; i < kOpcodeCount; ++i)
        if (kMnemonics[static_cast<std::size_t>(i)] == text)
            return static_cast<Opcode>(i);
    return std::nullopt;
}

bool has_immediate(Opcode op) {
    switch (op) {
        case Opcode::Addi:
        case Opcode::Andi:
        case Opcode::Ori:
        case Opcode::Xori:
        case Opcode::Slli:
        case Opcode::Srli:
        case Opcode::Srai:
        case Opcode::Lui:
        case Opcode::Lw:
        case Opcode::Sw:
        case Opcode::Beq:
        case Opcode::Bne:
        case Opcode::Blt:
        case Opcode::Bge:
        case Opcode::Bltu:
        case Opcode::Bgeu:
        case Opcode::Br:
        case Opcode::Brl:
        case Opcode::Get:
        case Opcode::Put:
            return true;
        default:
            return false;
    }
}

std::string disassemble(std::uint32_t word, std::uint32_t pc) {
    const Instruction insn = decode(word);
    std::string text(mnemonic(insn.op));
    // Appended rather than `"r" + std::to_string(r)`, which GCC 12 flags
    // with a -Wrestrict false positive in optimised builds.
    auto reg = [](int r) { return std::string(1, 'r').append(std::to_string(r)); };
    auto pad = [&] { text.append(text.size() < 5 ? 5 - text.size() : 1, ' '); };

    switch (insn.op) {
        case Opcode::Add:
        case Opcode::Sub:
        case Opcode::Mul:
        case Opcode::Mulh:
        case Opcode::And:
        case Opcode::Or:
        case Opcode::Xor:
        case Opcode::Sll:
        case Opcode::Srl:
        case Opcode::Sra:
            pad();
            text += reg(insn.rd) + ", " + reg(insn.ra) + ", " + reg(insn.rb);
            break;
        case Opcode::Addi:
        case Opcode::Andi:
        case Opcode::Ori:
        case Opcode::Xori:
        case Opcode::Slli:
        case Opcode::Srli:
        case Opcode::Srai:
        case Opcode::Lw:
        case Opcode::Sw:
            pad();
            text += reg(insn.rd) + ", " + reg(insn.ra) + ", " +
                    std::to_string(insn.imm);
            break;
        case Opcode::Lui:
            pad();
            text += reg(insn.rd) + ", " + std::to_string(insn.imm & 0xFFFF);
            break;
        case Opcode::Beq:
        case Opcode::Bne:
        case Opcode::Blt:
        case Opcode::Bge:
        case Opcode::Bltu:
        case Opcode::Bgeu:
            pad();
            // rb travels in the rd slot for branches.
            text += reg(insn.ra) + ", " + reg(insn.rd) + ", " +
                    std::to_string(pc + 4 + static_cast<std::uint32_t>(insn.imm));
            break;
        case Opcode::Br:
        case Opcode::Brl:
            pad();
            text += std::to_string(pc + 4 + static_cast<std::uint32_t>(insn.imm));
            break;
        case Opcode::Jr:
            pad();
            text += reg(insn.ra);
            break;
        case Opcode::Get:
            pad();
            text += reg(insn.rd) + ", " + std::to_string(insn.imm & 0x7);
            break;
        case Opcode::Put:
            pad();
            text += reg(insn.ra) + ", " + std::to_string(insn.imm & 0x7);
            break;
        case Opcode::Halt:
            break;
    }
    return text;
}

bool is_branch(Opcode op) {
    switch (op) {
        case Opcode::Beq:
        case Opcode::Bne:
        case Opcode::Blt:
        case Opcode::Bge:
        case Opcode::Bltu:
        case Opcode::Bgeu:
        case Opcode::Br:
        case Opcode::Brl:
        case Opcode::Jr:
            return true;
        default:
            return false;
    }
}

}  // namespace refpga::soc
