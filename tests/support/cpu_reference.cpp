#include "refpga/soc/cpu_reference.hpp"

#include "refpga/common/contracts.hpp"

namespace refpga::soc {

CpuReference::CpuReference(MemorySystem& memory, CpuCosts costs)
    : mem_(memory), costs_(costs) {}

void CpuReference::reset(std::uint32_t pc) {
    regs_.fill(0);
    pc_ = pc;
    cycles_ = 0;
    retired_ = 0;
    state_ = CpuState::Running;
}

std::uint32_t CpuReference::reg(int index) const {
    REFPGA_EXPECTS(index >= 0 && index < 32);
    return index == 0 ? 0 : regs_[static_cast<std::size_t>(index)];
}

void CpuReference::set_reg(int index, std::uint32_t value) {
    REFPGA_EXPECTS(index >= 0 && index < 32);
    if (index != 0) regs_[static_cast<std::size_t>(index)] = value;
}

FslLink& CpuReference::fsl_to_cpu(int link) {
    REFPGA_EXPECTS(link >= 0 && link < kFslLinks);
    return fsl_in_[static_cast<std::size_t>(link)];
}

FslLink& CpuReference::fsl_from_cpu(int link) {
    REFPGA_EXPECTS(link >= 0 && link < kFslLinks);
    return fsl_out_[static_cast<std::size_t>(link)];
}

CpuState CpuReference::step() {
    if (state_ == CpuState::Halted) return state_;
    state_ = CpuState::Running;

    const std::uint32_t word = mem_.peek(pc_);
    const Instruction insn = decode(word);
    const int fetch = mem_.fetch_latency(pc_);

    auto ra = [&] { return reg(insn.ra); };
    auto rb = [&] { return reg(insn.rb); };
    auto rd_as_rb = [&] { return reg(insn.rd); };  // branches keep rb in rd slot
    const auto imm = static_cast<std::uint32_t>(insn.imm);

    std::uint32_t next_pc = pc_ + 4;
    int cost = costs_.alu;

    switch (insn.op) {
        case Opcode::Add: set_reg(insn.rd, ra() + rb()); break;
        case Opcode::Sub: set_reg(insn.rd, ra() - rb()); break;
        case Opcode::Mul:
            set_reg(insn.rd, ra() * rb());
            cost = costs_.mul;
            break;
        case Opcode::Mulh: {
            const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(ra())) *
                                   static_cast<std::int32_t>(rb());
            set_reg(insn.rd, static_cast<std::uint32_t>(p >> 32));
            cost = costs_.mul;
            break;
        }
        case Opcode::And: set_reg(insn.rd, ra() & rb()); break;
        case Opcode::Or: set_reg(insn.rd, ra() | rb()); break;
        case Opcode::Xor: set_reg(insn.rd, ra() ^ rb()); break;
        case Opcode::Sll: set_reg(insn.rd, ra() << (rb() & 31)); break;
        case Opcode::Srl: set_reg(insn.rd, ra() >> (rb() & 31)); break;
        case Opcode::Sra:
            set_reg(insn.rd, static_cast<std::uint32_t>(
                                 static_cast<std::int32_t>(ra()) >> (rb() & 31)));
            break;
        case Opcode::Addi: set_reg(insn.rd, ra() + imm); break;
        case Opcode::Andi: set_reg(insn.rd, ra() & (imm & 0xFFFFu)); break;
        case Opcode::Ori: set_reg(insn.rd, ra() | (imm & 0xFFFFu)); break;
        case Opcode::Xori: set_reg(insn.rd, ra() ^ (imm & 0xFFFFu)); break;
        case Opcode::Slli: set_reg(insn.rd, ra() << (imm & 31)); break;
        case Opcode::Srli: set_reg(insn.rd, ra() >> (imm & 31)); break;
        case Opcode::Srai:
            set_reg(insn.rd, static_cast<std::uint32_t>(
                                 static_cast<std::int32_t>(ra()) >> (imm & 31)));
            break;
        case Opcode::Lui: set_reg(insn.rd, (imm & 0xFFFFu) << 16); break;
        case Opcode::Lw: {
            std::int64_t lat = 0;
            set_reg(insn.rd, mem_.read_word(ra() + imm, lat));
            cost = costs_.load_store + static_cast<int>(lat);
            break;
        }
        case Opcode::Sw: {
            std::int64_t lat = 0;
            mem_.write_word(ra() + imm, reg(insn.rd), lat);
            cost = costs_.load_store + static_cast<int>(lat);
            break;
        }
        case Opcode::Beq:
        case Opcode::Bne:
        case Opcode::Blt:
        case Opcode::Bge:
        case Opcode::Bltu:
        case Opcode::Bgeu: {
            const std::uint32_t a = ra();
            const std::uint32_t b = rd_as_rb();
            const auto sa = static_cast<std::int32_t>(a);
            const auto sb = static_cast<std::int32_t>(b);
            bool taken = false;
            switch (insn.op) {
                case Opcode::Beq: taken = a == b; break;
                case Opcode::Bne: taken = a != b; break;
                case Opcode::Blt: taken = sa < sb; break;
                case Opcode::Bge: taken = sa >= sb; break;
                case Opcode::Bltu: taken = a < b; break;
                case Opcode::Bgeu: taken = a >= b; break;
                default: break;
            }
            if (taken) {
                next_pc = pc_ + 4 + imm;
                cost = costs_.branch_taken;
            } else {
                cost = costs_.branch_not_taken;
            }
            break;
        }
        case Opcode::Br:
            next_pc = pc_ + 4 + imm;
            cost = costs_.branch_taken;
            break;
        case Opcode::Brl:
            set_reg(15, pc_ + 4);
            next_pc = pc_ + 4 + imm;
            cost = costs_.branch_taken;
            break;
        case Opcode::Jr:
            next_pc = ra();
            cost = costs_.branch_taken;
            break;
        case Opcode::Get: {
            FslLink& link = fsl_to_cpu(static_cast<int>(imm & 0x7));
            if (!link.can_read()) {
                ++cycles_;  // stall
                state_ = CpuState::BlockedOnFsl;
                return state_;
            }
            set_reg(insn.rd, link.read());
            break;
        }
        case Opcode::Put: {
            FslLink& link = fsl_from_cpu(static_cast<int>(imm & 0x7));
            if (!link.can_write()) {
                ++cycles_;
                state_ = CpuState::BlockedOnFsl;
                return state_;
            }
            link.write(ra());
            break;
        }
        case Opcode::Halt:
            state_ = CpuState::Halted;
            cycles_ += fetch;
            ++retired_;
            return state_;
    }

    // Fetch overlaps execution by one cycle in the pipeline; charge the
    // excess fetch latency beyond that overlap.
    cycles_ += cost + (fetch - 1);
    ++retired_;
    pc_ = next_pc;
    return state_;
}

CpuState CpuReference::run(std::int64_t max_cycles) {
    const std::int64_t limit = cycles_ + max_cycles;
    while (state_ != CpuState::Halted && cycles_ < limit) {
        step();
        if (state_ == CpuState::BlockedOnFsl) break;  // needs external progress
    }
    return state_;
}

}  // namespace refpga::soc
