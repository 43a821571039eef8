#include "refpga/soc/cpu.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

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
    op.handler = static_cast<std::uint8_t>(insn.op);
    op.pc = pc;
    op.rd = insn.rd == 0 ? kSink : insn.rd;
    op.ra = insn.ra;
    op.rb = insn.rb;
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
            op.cost = costs_.branch_not_taken + fetch_extra;
            op.taken_cost = costs_.branch_taken + fetch_extra;
            break;
        case Opcode::Br:
        case Opcode::Brl:
            op.target = pc + 4 + imm;
            op.cost = costs_.branch_taken + fetch_extra;
            break;
        case Opcode::Jr: op.cost = costs_.branch_taken + fetch_extra; break;
        case Opcode::Get:
        case Opcode::Put: op.imm = imm & 0x7; break;
        case Opcode::Halt: op.cost = fetch_extra + 1; break;
        default: break;  // R-type ALU
    }
    return op;
}

bool Cpu::is_shift_add_loop(const Op* o, std::size_t count) {
    if (count != 6) return false;
    // andi t, b, 1 | beq t, r0 over add acc, acc, a | slli a, a, 1 |
    // srli b, b, 1 | bne b, r0 back to the andi.
    const std::uint8_t t = o[0].rd;
    const std::uint8_t b = o[0].ra;
    const std::uint8_t acc = o[2].rd;
    const std::uint8_t a = o[2].rb;
    const auto general = [](std::uint8_t reg) { return reg != 0 && reg != kSink; };
    const auto handler = [](Opcode op) { return static_cast<std::uint8_t>(op); };
    const bool shape =
        o[0].handler == handler(Opcode::Andi) && o[0].imm == 1 &&
        o[1].handler == kSkipOne && o[1].ra == t && o[1].rb == 0 &&
        o[2].handler == kOpcodeCount + handler(Opcode::Add) && o[2].ra == acc &&
        o[3].handler == handler(Opcode::Slli) && o[3].rd == a && o[3].ra == a &&
        o[3].imm == 1 && o[4].handler == handler(Opcode::Srli) && o[4].rd == b &&
        o[4].ra == b && o[4].imm == 1 && o[5].handler == handler(Opcode::Bne) &&
        o[5].ra == b && o[5].rb == 0 && o[5].target == o[0].pc;
    const bool registers = general(t) && general(b) && general(acc) && general(a) &&
                           t != b && t != acc && t != a && b != acc && b != a && acc != a;
    // With no negative cost, no partial sum reaches the limit before the
    // whole loop's cost does.
    bool costs = o[1].taken_cost >= 0 && o[5].taken_cost >= 0;
    for (std::size_t i = 0; i < count; ++i) costs = costs && o[i].cost >= 0;
    return shape && registers && costs;
}

void Cpu::flush() {
    for (Slot& slot : table_) slot.first = kNoBlock;
    arena_.clear();
    epoch_ = mem_.code_epoch();
    ++flushes_;
}

const Cpu::Op* Cpu::translate(std::uint32_t pc) {
    // The entry word is fetched as the reference fetches it, so an unmapped
    // or misaligned pc or an illegal opcode throws here, before it retires.
    Instruction insn = decode(mem_.peek(pc));
    // Room for the longest block and its fall-through op.
    if (arena_.size() + static_cast<std::size_t>(kMaxBlockOps) + 1 > kArenaOps) flush();
    ++translations_;
    const auto first = static_cast<std::uint32_t>(arena_.size());
    // Only RAM is watched: a block entered in the OPB window (the GPIO word
    // changes without a RAM write) is one instruction long and never kept.
    const bool kept = mem_.code_word(pc) != nullptr;
    // Read ahead only over words whose fetch cannot fault, so a fault still
    // belongs to the instruction that reaches it.
    auto fetchable = [&](std::uint32_t addr) -> const std::uint32_t* {
        const std::uint32_t* word = mem_.code_word(addr);
        return word != nullptr && (*word >> 26) < static_cast<std::uint32_t>(kOpcodeCount)
                   ? word
                   : nullptr;
    };
    std::uint32_t at = pc;
    bool skippable = false;  // the op at `at` follows a skip-one branch
    for (int n = 1;; ++n, at += 4) {
        Op op = lower(insn, at);
        if (kept) mem_.watch_code(at);
        const std::uint32_t* next = kept && n < kMaxBlockOps ? fetchable(at + 4) : nullptr;
        bool goes_on = !is_branch(insn.op) && insn.op != Opcode::Halt;
        if (skippable) {
            op.handler = static_cast<std::uint8_t>(kOpcodeCount + op.handler);
            skippable = false;
        } else if (next != nullptr && is_conditional(insn.op) && op.target == at + 8 &&
                   n + 1 < kMaxBlockOps && is_alu(decode(*next).op) &&
                   fetchable(at + 8) != nullptr) {
            // A conditional branch over exactly one ALU op keeps its block
            // going; the op after the skipped one is in the block too.
            op.handler = static_cast<std::uint8_t>(
                kSkipOne + static_cast<int>(insn.op) - static_cast<int>(Opcode::Beq));
            skippable = true;
            goes_on = true;
        }
        arena_.push_back(op);
        if (!goes_on) break;
        if (next == nullptr) {
            // A straight-line run cut short falls through to the next word.
            Op fall;
            fall.handler = kFallThrough;
            fall.pc = at + 4;
            arena_.push_back(fall);
            break;
        }
        insn = decode(*next);
    }
    if (is_shift_add_loop(arena_.data() + first, arena_.size() - first))
        arena_[first].handler = kShiftAddLoop;
    if (kept) table_[(pc >> 2) & (kBlockSlots - 1)] = Slot{pc, first};
    return arena_.data() + first;
}

inline const Cpu::Op* Cpu::block_at(std::uint32_t pc) {
    if (mem_.code_epoch() != epoch_) flush();
    const Slot& slot = table_[(pc >> 2) & (kBlockSlots - 1)];
    if (slot.pc == pc && slot.first != kNoBlock) return arena_.data() + slot.first;
    return translate(pc);
}

const Cpu::Op* Cpu::link(std::uint32_t from, int edge, std::uint32_t pc) {
    const std::uint64_t flushes = flushes_;
    const Op* to = block_at(pc);
    // A link lives in the arena and outlives its target's table slot: the
    // ops stay valid until the next flush, which drops every link too.
    if (flushes_ == flushes && mem_.code_word(pc) != nullptr)
        arena_[from].link[static_cast<std::size_t>(edge)] =
            static_cast<std::uint32_t>(to - arena_.data());
    return to;
}

CpuState Cpu::execute(std::int64_t limit) {
    // The ALU ops, Add..Lui in Opcode order, and the value each writes.
#define REFPGA_ALU_OPS(X)                                                             \
    X(add, r[o->ra] + r[o->rb])                                                       \
    X(sub, r[o->ra] - r[o->rb])                                                       \
    X(mul, r[o->ra] * r[o->rb])                                                       \
    X(mulh, static_cast<std::uint32_t>(                                               \
                (static_cast<std::int64_t>(static_cast<std::int32_t>(r[o->ra])) *     \
                 static_cast<std::int32_t>(r[o->rb])) >>                              \
                32))                                                                  \
    X(and_, r[o->ra] & r[o->rb])                                                      \
    X(or_, r[o->ra] | r[o->rb])                                                       \
    X(xor_, r[o->ra] ^ r[o->rb])                                                      \
    X(sll, r[o->ra] << (r[o->rb] & 31))                                               \
    X(srl, r[o->ra] >> (r[o->rb] & 31))                                               \
    X(sra, static_cast<std::uint32_t>(static_cast<std::int32_t>(r[o->ra]) >>          \
                                      (r[o->rb] & 31)))                               \
    X(addi, r[o->ra] + o->imm)                                                        \
    X(andi, r[o->ra] & o->imm)                                                        \
    X(ori, r[o->ra] | o->imm)                                                         \
    X(xori, r[o->ra] ^ o->imm)                                                        \
    X(slli, r[o->ra] << o->imm)                                                       \
    X(srli, r[o->ra] >> o->imm)                                                       \
    X(srai, static_cast<std::uint32_t>(static_cast<std::int32_t>(r[o->ra]) >> o->imm)) \
    X(lui, o->imm)
    // The conditional branches, Beq..Bgeu in Opcode order, and their
    // conditions.
#define REFPGA_CONDITIONAL_OPS(X)                                                     \
    X(beq, r[o->ra] == r[o->rb])                                                      \
    X(bne, r[o->ra] != r[o->rb])                                                      \
    X(blt, static_cast<std::int32_t>(r[o->ra]) < static_cast<std::int32_t>(r[o->rb])) \
    X(bge, static_cast<std::int32_t>(r[o->ra]) >= static_cast<std::int32_t>(r[o->rb])) \
    X(bltu, r[o->ra] < r[o->rb])                                                      \
    X(bgeu, r[o->ra] >= r[o->rb])
#define REFPGA_OP_LABEL(NAME, EXPR) &&op_##NAME,
#define REFPGA_SKIPPED_LABEL(NAME, EXPR) &&skipped_##NAME,
#define REFPGA_SKIP_ONE_LABEL(NAME, COND) &&skip_one_##NAME,

    // Threaded dispatch: every handler ends in its own retire tail and its
    // own indirect jump to the next op's handler, found through this table
    // of label addresses (labels-as-values, a GNU extension), indexed by
    // Op::handler.
    static const void* const kHandlers[] = {
        REFPGA_ALU_OPS(REFPGA_OP_LABEL)
        &&op_lw, &&op_sw,
        REFPGA_CONDITIONAL_OPS(REFPGA_OP_LABEL)
        &&op_br, &&op_brl, &&op_jr, &&op_get, &&op_put, &&op_halt,
        REFPGA_ALU_OPS(REFPGA_SKIPPED_LABEL)
        REFPGA_CONDITIONAL_OPS(REFPGA_SKIP_ONE_LABEL)
        &&fall_through, &&shift_add_loop};
    static_assert(std::size(kHandlers) == kShiftAddLoop + 1);

    state_ = CpuState::Running;
    // pc is written only where it is read: at every way out, a contract
    // violation included, and for a lookup. On the way through, each op
    // carries its own.
    std::uint32_t pc = pc_;
    std::int64_t budget = limit - cycles_;  // cycles left before the limit
    std::int64_t retired = retired_;
    std::uint32_t* const r = regs_.data();
    const Op* const arena = arena_.data();  // never reallocated
    const Op* o = nullptr;
    std::uint32_t skip = 0;  // 1 when the last skip-one branch was taken

    // Every tail retires `o` at COST cycles and stops at the limit, with pc
    // at NEXT, before it finds the next op: the next op of the block, the
    // linked successor block (FOLLOW, which looks it up and links it the
    // first time), or a table lookup (LOOKUP) for jr, whose targets vary,
    // and for a store that moved the code-write epoch, whose lookup flushes.
    // Inside this loop only a store can move the epoch, so links are
    // followed without checking it.
#define REFPGA_DISPATCH() goto* kHandlers[o->handler]
#define REFPGA_RETIRE(COST, NEXT) \
    budget -= (COST);             \
    ++retired;                    \
    if (budget <= 0) {            \
        pc = (NEXT);              \
        goto done;                \
    }
#define REFPGA_NEXT(COST)          \
    REFPGA_RETIRE(COST, o->pc + 4) \
    ++o;                           \
    REFPGA_DISPATCH()
#define REFPGA_FOLLOW(EDGE, NEXT)                                                   \
    do {                                                                            \
        const std::uint32_t to = o->link[EDGE];                                     \
        if (to != kNoBlock) {                                                       \
            o = arena + to;                                                         \
        } else {                                                                    \
            pc = (NEXT);                                                            \
            o = link(static_cast<std::uint32_t>(o - arena), EDGE, pc);              \
        }                                                                           \
    } while (false)
#define REFPGA_LOOKUP(COST, NEXT) \
    REFPGA_RETIRE(COST, NEXT)     \
    pc = (NEXT);                  \
    o = block_at(pc);             \
    REFPGA_DISPATCH()
#define REFPGA_OP(NAME, EXPR) \
    op_##NAME:                \
    r[o->rd] = (EXPR);        \
    REFPGA_NEXT(o->cost);
    // The op of a skip-one branch runs either way, so the host does not
    // branch on the guest's condition: skipped, it writes the sink and
    // retires nothing. It is never a block's last op, and the limit cannot
    // stop it skipped: the branch charged nothing since its own check.
#define REFPGA_SKIPPED(NAME, EXPR)                                 \
    skipped_##NAME : {                                             \
        const std::uint32_t value = (EXPR);                        \
        const std::uint32_t keep = skip - 1; /* all ones or 0 */   \
        r[(o->rd & keep) | (kSink & ~keep)] = value;               \
        budget -= o->cost & static_cast<std::int32_t>(keep);       \
    }                                                              \
    retired += 1 - skip;                                           \
    if (budget <= 0) {                                             \
        pc = o->pc + 4;                                            \
        goto done;                                                 \
    }                                                              \
    ++o;                                                           \
    REFPGA_DISPATCH();
    // A conditional branch that ends its block follows the edge it took.
#define REFPGA_BRANCH(NAME, COND)                                      \
    op_##NAME : {                                                      \
        const bool taken = (COND);                                     \
        const std::uint32_t next = taken ? o->target : o->pc + 4;      \
        REFPGA_RETIRE(taken ? o->taken_cost : o->cost, next)           \
        REFPGA_FOLLOW(static_cast<int>(taken), next);                  \
    }                                                                  \
    REFPGA_DISPATCH();
    // A skip-one branch goes on to its op, which reads `skip`.
#define REFPGA_SKIP_ONE(NAME, COND)                                      \
    skip_one_##NAME:                                                     \
    skip = (COND) ? 1 : 0;                                               \
    REFPGA_RETIRE(skip != 0 ? o->taken_cost : o->cost,                   \
                  skip != 0 ? o->target : o->pc + 4)                     \
    ++o;                                                                 \
    REFPGA_DISPATCH();

    try {
        o = block_at(pc);
        REFPGA_DISPATCH();

        REFPGA_ALU_OPS(REFPGA_OP)
        REFPGA_ALU_OPS(REFPGA_SKIPPED)
        REFPGA_CONDITIONAL_OPS(REFPGA_BRANCH)
        REFPGA_CONDITIONAL_OPS(REFPGA_SKIP_ONE)
    op_lw: {
        std::int64_t latency = 0;
        pc = o->pc;  // for a fault
        r[o->rd] = mem_.read_word(r[o->ra] + o->imm, latency);
        budget -= latency;
    }
        REFPGA_NEXT(o->cost);
    op_sw: {
        std::int64_t latency = 0;
        pc = o->pc;  // for a fault
        mem_.write_word(r[o->ra] + o->imm, r[o->rb], latency);
        budget -= latency;
    }
        if (mem_.code_epoch() != epoch_) {
            REFPGA_LOOKUP(o->cost, o->pc + 4);
        }
        REFPGA_NEXT(o->cost);
    op_br:
        REFPGA_RETIRE(o->cost, o->target)
        REFPGA_FOLLOW(1, o->target);
        REFPGA_DISPATCH();
    op_brl:
        r[15] = o->pc + 4;
        REFPGA_RETIRE(o->cost, o->target)
        REFPGA_FOLLOW(1, o->target);
        REFPGA_DISPATCH();
    op_jr:
        REFPGA_LOOKUP(o->cost, r[o->ra]);
    op_get: {
        FslLink& fsl = fsl_in_[o->imm];
        if (!fsl.can_read()) {
            --budget;  // stall
            pc = o->pc;
            state_ = CpuState::BlockedOnFsl;
            goto done;
        }
        r[o->rd] = fsl.read();
    }
        REFPGA_NEXT(o->cost);
    op_put: {
        FslLink& fsl = fsl_out_[o->imm];
        if (!fsl.can_write()) {
            --budget;
            pc = o->pc;
            state_ = CpuState::BlockedOnFsl;
            goto done;
        }
        fsl.write(r[o->ra]);
    }
        REFPGA_NEXT(o->cost);
    fall_through:
        REFPGA_FOLLOW(0, o->pc);
        REFPGA_DISPATCH();
    shift_add_loop: {
        // o[0..5]: andi t, b, 1 | beq t, r0 | add acc, acc, a | slli a, a, 1 |
        // srli b, b, 1 | bne b, r0. The loop runs once per bit of b up to
        // its highest set one (once for b = 0); the beq falls through to
        // the add on the set bits, and the bne is taken on all runs but the
        // last.
        const std::uint32_t b = r[o[0].ra];
        const int k = std::max(1, static_cast<int>(std::bit_width(b)));
        const int p = std::popcount(b);
        const std::int64_t loop_cost =
            std::int64_t{k} * (o[0].cost + o[3].cost + o[4].cost) +
            std::int64_t{p} * (o[1].cost + o[2].cost) +
            std::int64_t{k - p} * o[1].taken_cost +
            std::int64_t{k - 1} * o[5].taken_cost + o[5].cost;
        if (budget > loop_cost) {
            r[o[2].rd] += r[o[2].rb] * b;
            r[o[3].rd] = static_cast<std::uint32_t>(std::uint64_t{r[o[3].rd]} << k);
            r[o[4].rd] = 0;
            r[o[0].rd] = b != 0 ? 1 : 0;
            budget -= loop_cost;
            retired += 5 * k + p;
            ++fused_loops_;
            o += 5;
            REFPGA_FOLLOW(0, o->pc + 4);
            REFPGA_DISPATCH();
        }
    }
        // A limit inside the loop: run its ops one by one.
        goto op_andi;
    op_halt:
        budget -= o->cost;
        ++retired;
        pc = o->pc;
        state_ = CpuState::Halted;
    done:;
    } catch (...) {
        // As in the reference, a contract violation leaves pc at the
        // instruction that faulted and the counts of those before it.
        pc_ = pc;
        cycles_ = limit - budget;
        retired_ = retired;
        throw;
    }
#undef REFPGA_SKIP_ONE
#undef REFPGA_BRANCH
#undef REFPGA_SKIPPED
#undef REFPGA_OP
#undef REFPGA_LOOKUP
#undef REFPGA_FOLLOW
#undef REFPGA_NEXT
#undef REFPGA_RETIRE
#undef REFPGA_DISPATCH
#undef REFPGA_SKIP_ONE_LABEL
#undef REFPGA_SKIPPED_LABEL
#undef REFPGA_OP_LABEL
#undef REFPGA_CONDITIONAL_OPS
#undef REFPGA_ALU_OPS
    pc_ = pc;
    cycles_ = limit - budget;
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
