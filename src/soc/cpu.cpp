#include "refpga/soc/cpu.hpp"

#include "refpga/common/contracts.hpp"

namespace refpga::soc {

void FslLink::write(std::uint32_t v) {
    REFPGA_EXPECTS(can_write());
    fifo_.push_back(v);
}

std::uint32_t FslLink::read() {
    REFPGA_EXPECTS(can_read());
    const std::uint32_t v = fifo_.front();
    fifo_.pop_front();
    return v;
}

Cpu::Cpu(MemorySystem& memory, CpuCosts costs)
    : mem_(memory), costs_(costs), decoded_(kDecodeSlots, DecodedSlot{0, decode(0)}) {}

void Cpu::reset(std::uint32_t pc) {
    regs_.fill(0);
    pc_ = pc;
    cycles_ = 0;
    retired_ = 0;
    state_ = CpuState::Running;
}

std::uint32_t Cpu::reg(int index) const {
    REFPGA_EXPECTS(index >= 0 && index < 32);
    return index == 0 ? 0 : regs_[static_cast<std::size_t>(index)];
}

void Cpu::set_reg(int index, std::uint32_t value) {
    REFPGA_EXPECTS(index >= 0 && index < 32);
    if (index != 0) regs_[static_cast<std::size_t>(index)] = value;
}

FslLink& Cpu::fsl_to_cpu(int link) {
    REFPGA_EXPECTS(link >= 0 && link < kFslLinks);
    return fsl_in_[static_cast<std::size_t>(link)];
}

FslLink& Cpu::fsl_from_cpu(int link) {
    REFPGA_EXPECTS(link >= 0 && link < kFslLinks);
    return fsl_out_[static_cast<std::size_t>(link)];
}

inline void Cpu::execute() {
    state_ = CpuState::Running;

    const std::uint32_t word = mem_.peek(pc_);
    DecodedSlot& slot = decoded_[(pc_ >> 2) & (kDecodeSlots - 1)];
    if (slot.word != word) {
        slot.insn = decode(word);
        slot.word = word;
    }
    const Instruction insn = slot.insn;
    const int fetch = mem_.fetch_latency(pc_);

    // Decoded register fields are 5 bits wide; regs_[0] stays 0 because
    // set() and set_reg() skip it.
    const std::uint32_t ra = regs_[insn.ra];
    const std::uint32_t rb = regs_[insn.rb];
    // sw's data register, or a branch's rb (branches keep rb in the rd slot).
    const std::uint32_t rd_value = regs_[insn.rd];
    auto set = [&](std::uint32_t value) {
        if (insn.rd != 0) regs_[insn.rd] = value;
    };
    const auto imm = static_cast<std::uint32_t>(insn.imm);

    std::uint32_t next_pc = pc_ + 4;
    int cost = costs_.alu;
    // Conditional branches resolve without a host branch on the outcome.
    const auto sa = static_cast<std::int32_t>(ra);
    const auto sb = static_cast<std::int32_t>(rd_value);
    auto branch = [&](bool taken) {
        next_pc = taken ? pc_ + 4 + imm : next_pc;
        cost = taken ? costs_.branch_taken : costs_.branch_not_taken;
    };

    switch (insn.op) {
        case Opcode::Add: set(ra + rb); break;
        case Opcode::Sub: set(ra - rb); break;
        case Opcode::Mul:
            set(ra * rb);
            cost = costs_.mul;
            break;
        case Opcode::Mulh: {
            const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(ra)) *
                                   static_cast<std::int32_t>(rb);
            set(static_cast<std::uint32_t>(p >> 32));
            cost = costs_.mul;
            break;
        }
        case Opcode::And: set(ra & rb); break;
        case Opcode::Or: set(ra | rb); break;
        case Opcode::Xor: set(ra ^ rb); break;
        case Opcode::Sll: set(ra << (rb & 31)); break;
        case Opcode::Srl: set(ra >> (rb & 31)); break;
        case Opcode::Sra:
            set(static_cast<std::uint32_t>(static_cast<std::int32_t>(ra) >> (rb & 31)));
            break;
        case Opcode::Addi: set(ra + imm); break;
        case Opcode::Andi: set(ra & (imm & 0xFFFFu)); break;
        case Opcode::Ori: set(ra | (imm & 0xFFFFu)); break;
        case Opcode::Xori: set(ra ^ (imm & 0xFFFFu)); break;
        case Opcode::Slli: set(ra << (imm & 31)); break;
        case Opcode::Srli: set(ra >> (imm & 31)); break;
        case Opcode::Srai:
            set(static_cast<std::uint32_t>(static_cast<std::int32_t>(ra) >> (imm & 31)));
            break;
        case Opcode::Lui: set((imm & 0xFFFFu) << 16); break;
        case Opcode::Lw: {
            std::int64_t lat = 0;
            set(mem_.read_word(ra + imm, lat));
            cost = costs_.load_store + static_cast<int>(lat);
            break;
        }
        case Opcode::Sw: {
            std::int64_t lat = 0;
            mem_.write_word(ra + imm, rd_value, lat);
            cost = costs_.load_store + static_cast<int>(lat);
            break;
        }
        case Opcode::Beq: branch(ra == rd_value); break;
        case Opcode::Bne: branch(ra != rd_value); break;
        case Opcode::Blt: branch(sa < sb); break;
        case Opcode::Bge: branch(sa >= sb); break;
        case Opcode::Bltu: branch(ra < rd_value); break;
        case Opcode::Bgeu: branch(ra >= rd_value); break;
        case Opcode::Br:
            next_pc = pc_ + 4 + imm;
            cost = costs_.branch_taken;
            break;
        case Opcode::Brl:
            regs_[15] = pc_ + 4;
            next_pc = pc_ + 4 + imm;
            cost = costs_.branch_taken;
            break;
        case Opcode::Jr:
            next_pc = ra;
            cost = costs_.branch_taken;
            break;
        case Opcode::Get: {
            FslLink& link = fsl_in_[imm & 0x7];
            if (!link.can_read()) {
                ++cycles_;  // stall
                state_ = CpuState::BlockedOnFsl;
                return;
            }
            set(link.read());
            break;
        }
        case Opcode::Put: {
            FslLink& link = fsl_out_[imm & 0x7];
            if (!link.can_write()) {
                ++cycles_;
                state_ = CpuState::BlockedOnFsl;
                return;
            }
            link.write(ra);
            break;
        }
        case Opcode::Halt:
            state_ = CpuState::Halted;
            cycles_ += fetch;
            ++retired_;
            return;
    }

    // Fetch overlaps execution by one cycle in the pipeline; charge the
    // excess fetch latency beyond that overlap.
    cycles_ += cost + (fetch - 1);
    ++retired_;
    pc_ = next_pc;
}

CpuState Cpu::step() {
    if (state_ != CpuState::Halted) execute();
    return state_;
}

CpuState Cpu::run(std::int64_t max_cycles) {
    const std::int64_t limit = cycles_ + max_cycles;
    while (state_ != CpuState::Halted && cycles_ < limit) {
        execute();
        if (state_ == CpuState::BlockedOnFsl) break;  // needs external progress
    }
    return state_;
}

}  // namespace refpga::soc
