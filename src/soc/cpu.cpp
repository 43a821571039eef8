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
    : mem_(memory), costs_(costs), epoch_(memory.code_epoch()) {
    arena_.reserve(kArenaOps);
}

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

namespace {

/// Add..Lui: register-only ops that cannot fault, the ones a skip-one
/// branch may jump over inside its block.
bool is_alu(Opcode op) { return op <= Opcode::Lui; }

bool is_conditional(Opcode op) { return op >= Opcode::Beq && op <= Opcode::Bgeu; }

}  // namespace

Cpu::Op Cpu::lower(const Instruction& insn, std::uint32_t pc) const {
    // Fetch overlaps execution by one cycle in the pipeline; every op is
    // charged the excess fetch latency beyond that overlap.
    const int fetch_extra = mem_.fetch_latency(pc) - 1;
    const auto imm = static_cast<std::uint32_t>(insn.imm);
    Op op;
    op.op = insn.op;
    op.rd = insn.rd == 0 ? kSink : insn.rd;
    op.ra = insn.ra;
    op.rb = insn.rb;
    op.advance = 1;
    op.cost = costs_.alu + fetch_extra;
    switch (insn.op) {
        case Opcode::Mul:
        case Opcode::Mulh: op.cost = costs_.mul + fetch_extra; break;
        case Opcode::Andi:
        case Opcode::Ori:
        case Opcode::Xori: op.imm = imm & 0xFFFFu; break;
        case Opcode::Slli:
        case Opcode::Srli:
        case Opcode::Srai: op.imm = imm & 31; break;
        case Opcode::Lui: op.imm = (imm & 0xFFFFu) << 16; break;
        case Opcode::Addi: op.imm = imm; break;
        case Opcode::Lw:
            op.imm = imm;
            op.cost = costs_.load_store + fetch_extra;
            break;
        case Opcode::Sw:
            op.imm = imm;
            op.rb = insn.rd;  // the data register travels in the rd slot
            op.cost = costs_.load_store + fetch_extra;
            break;
        case Opcode::Beq:
        case Opcode::Bne:
        case Opcode::Blt:
        case Opcode::Bge:
        case Opcode::Bltu:
        case Opcode::Bgeu:
            op.rb = insn.rd;  // so does a branch's second operand
            op.target = pc + 4 + imm;
            op.advance = 0;
            op.cost = costs_.branch_not_taken + fetch_extra;
            op.taken_cost = costs_.branch_taken + fetch_extra;
            break;
        case Opcode::Br:
        case Opcode::Brl:
            op.target = pc + 4 + imm;
            op.advance = 0;
            op.cost = costs_.branch_taken + fetch_extra;
            break;
        case Opcode::Jr:
            op.advance = 0;
            op.cost = costs_.branch_taken + fetch_extra;
            break;
        case Opcode::Get:
        case Opcode::Put: op.imm = imm & 0x7; break;
        case Opcode::Halt:
            op.advance = 0;
            op.cost = fetch_extra + 1;
            break;
        default: break;  // R-type ALU
    }
    return op;
}

void Cpu::flush() {
    for (Slot& slot : table_) slot.first = kNoBlock;
    arena_.clear();
    epoch_ = mem_.code_epoch();
}

const Cpu::Op* Cpu::translate(std::uint32_t pc) {
    // The entry word is fetched as the reference fetches it, so an unmapped
    // or misaligned pc or an illegal opcode throws here, before it retires.
    Instruction insn = decode(mem_.peek(pc));
    if (arena_.size() + static_cast<std::size_t>(kMaxBlockOps) > kArenaOps) flush();
    ++translations_;
    // Only RAM is watched: a block entered in the OPB window (the GPIO word
    // changes without a RAM write) is one op long and never kept.
    if (mem_.code_word(pc) == nullptr) {
        Op op = lower(insn, pc);
        op.advance = 0;
        arena_.push_back(op);
        return &arena_.back();
    }
    const auto first = static_cast<std::uint32_t>(arena_.size());
    // Read ahead only over words whose fetch cannot fault, so a fault still
    // belongs to the instruction that reaches it.
    auto fetchable = [&](std::uint32_t addr) -> const std::uint32_t* {
        const std::uint32_t* word = mem_.code_word(addr);
        return word != nullptr && (*word >> 26) < static_cast<std::uint32_t>(kOpcodeCount)
                   ? word
                   : nullptr;
    };
    std::uint32_t at = pc;
    for (int n = 1;; ++n, at += 4) {
        Op op = lower(insn, at);
        mem_.watch_code(at);
        const std::uint32_t* next = n < kMaxBlockOps ? fetchable(at + 4) : nullptr;
        if (next == nullptr) {
            op.advance = 0;
        } else if (is_conditional(op.op) && op.target == at + 8 && n + 1 < kMaxBlockOps &&
                   is_alu(decode(*next).op) && fetchable(at + 8) != nullptr) {
            // A conditional branch over exactly one ALU op keeps its block
            // going; the op after the skipped one is in the block too.
            op.advance = 1;
        }
        arena_.push_back(op);
        if (op.advance == 0) break;
        insn = decode(*next);
    }
    table_[(pc >> 2) & (kBlockSlots - 1)] = Slot{pc, first};
    return arena_.data() + first;
}

inline const Cpu::Op* Cpu::block_at(std::uint32_t pc) {
    if (mem_.code_epoch() != epoch_) flush();
    const Slot& slot = table_[(pc >> 2) & (kBlockSlots - 1)];
    if (slot.pc == pc && slot.first != kNoBlock) return arena_.data() + slot.first;
    return translate(pc);
}

CpuState Cpu::execute(std::int64_t limit) {
    state_ = CpuState::Running;
    std::uint32_t pc = pc_;
    std::int64_t cycles = cycles_;
    std::int64_t retired = retired_;
    std::uint32_t* const r = regs_.data();
    try {
        // Each op retires through one of three tails: straight-line ops
        // break out of the switch, conditional branches go to `conditional`
        // and ops that end their block with pc set go to `leave`. The limit
        // is checked after every op, before the next block is looked up.
        for (const Op* op = block_at(pc);;) {
            const Op& o = *op;
            bool taken = false;
            switch (o.op) {
                case Opcode::Add: r[o.rd] = r[o.ra] + r[o.rb]; break;
                case Opcode::Sub: r[o.rd] = r[o.ra] - r[o.rb]; break;
                case Opcode::Mul: r[o.rd] = r[o.ra] * r[o.rb]; break;
                case Opcode::Mulh: {
                    const std::int64_t p =
                        static_cast<std::int64_t>(static_cast<std::int32_t>(r[o.ra])) *
                        static_cast<std::int32_t>(r[o.rb]);
                    r[o.rd] = static_cast<std::uint32_t>(p >> 32);
                    break;
                }
                case Opcode::And: r[o.rd] = r[o.ra] & r[o.rb]; break;
                case Opcode::Or: r[o.rd] = r[o.ra] | r[o.rb]; break;
                case Opcode::Xor: r[o.rd] = r[o.ra] ^ r[o.rb]; break;
                case Opcode::Sll: r[o.rd] = r[o.ra] << (r[o.rb] & 31); break;
                case Opcode::Srl: r[o.rd] = r[o.ra] >> (r[o.rb] & 31); break;
                case Opcode::Sra:
                    r[o.rd] = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(r[o.ra]) >> (r[o.rb] & 31));
                    break;
                case Opcode::Addi: r[o.rd] = r[o.ra] + o.imm; break;
                case Opcode::Andi: r[o.rd] = r[o.ra] & o.imm; break;
                case Opcode::Ori: r[o.rd] = r[o.ra] | o.imm; break;
                case Opcode::Xori: r[o.rd] = r[o.ra] ^ o.imm; break;
                case Opcode::Slli: r[o.rd] = r[o.ra] << o.imm; break;
                case Opcode::Srli: r[o.rd] = r[o.ra] >> o.imm; break;
                case Opcode::Srai:
                    r[o.rd] = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(r[o.ra]) >> o.imm);
                    break;
                case Opcode::Lui: r[o.rd] = o.imm; break;
                case Opcode::Lw: {
                    std::int64_t latency = 0;
                    r[o.rd] = mem_.read_word(r[o.ra] + o.imm, latency);
                    cycles += latency;
                    break;
                }
                case Opcode::Sw: {
                    std::int64_t latency = 0;
                    mem_.write_word(r[o.ra] + o.imm, r[o.rb], latency);
                    cycles += latency;
                    // A store into translated code ends the block; the next
                    // block entry drops the stale translations.
                    if (mem_.code_epoch() != epoch_) {
                        pc += 4;
                        goto leave;
                    }
                    break;
                }
                case Opcode::Beq: taken = r[o.ra] == r[o.rb]; goto conditional;
                case Opcode::Bne: taken = r[o.ra] != r[o.rb]; goto conditional;
                case Opcode::Blt:
                    taken = static_cast<std::int32_t>(r[o.ra]) <
                            static_cast<std::int32_t>(r[o.rb]);
                    goto conditional;
                case Opcode::Bge:
                    taken = static_cast<std::int32_t>(r[o.ra]) >=
                            static_cast<std::int32_t>(r[o.rb]);
                    goto conditional;
                case Opcode::Bltu: taken = r[o.ra] < r[o.rb]; goto conditional;
                case Opcode::Bgeu: taken = r[o.ra] >= r[o.rb]; goto conditional;
                case Opcode::Br: pc = o.target; goto leave;
                case Opcode::Brl:
                    r[15] = pc + 4;
                    pc = o.target;
                    goto leave;
                case Opcode::Jr: pc = r[o.ra]; goto leave;
                case Opcode::Get: {
                    FslLink& link = fsl_in_[o.imm];
                    if (!link.can_read()) {
                        ++cycles;  // stall
                        state_ = CpuState::BlockedOnFsl;
                        goto done;
                    }
                    r[o.rd] = link.read();
                    break;
                }
                case Opcode::Put: {
                    FslLink& link = fsl_out_[o.imm];
                    if (!link.can_write()) {
                        ++cycles;
                        state_ = CpuState::BlockedOnFsl;
                        goto done;
                    }
                    link.write(r[o.ra]);
                    break;
                }
                case Opcode::Halt:
                    cycles += o.cost;
                    ++retired;
                    state_ = CpuState::Halted;
                    goto done;
            }
            cycles += o.cost;
            ++retired;
            pc += 4;
            if (cycles >= limit) break;
            op = o.advance != 0 ? op + 1 : block_at(pc);
            continue;

        conditional:
            // A skip-one branch steps over its ALU op when taken.
            cycles += taken ? o.taken_cost : o.cost;
            ++retired;
            pc = taken ? o.target : pc + 4;
            if (cycles >= limit) break;
            op = o.advance != 0 ? op + 1 + static_cast<int>(taken) : block_at(pc);
            continue;

        leave:
            cycles += o.cost;
            ++retired;
            if (cycles >= limit) break;
            op = block_at(pc);
        }
    done:;
    } catch (...) {
        // As in the reference, a contract violation leaves pc at the
        // instruction that faulted and the counts of those before it.
        pc_ = pc;
        cycles_ = cycles;
        retired_ = retired;
        throw;
    }
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    return state_;
}

CpuState Cpu::step() {
    // A limit already reached stops after the first instruction.
    if (state_ != CpuState::Halted) execute(cycles_);
    return state_;
}

CpuState Cpu::run(std::int64_t max_cycles) {
    const std::int64_t limit = cycles_ + max_cycles;
    if (state_ != CpuState::Halted && cycles_ < limit) execute(limit);
    return state_;
}

}  // namespace refpga::soc
