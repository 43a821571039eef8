// Differential tests for the soft core: the library's block-translating
// `Cpu` and the resident firmware (`app::SoftCore`) against the test-support
// oracles (`soc::CpuReference`, `app::run_software_cycle_reference`).
//
//   1. Seeded random programs run on both CPUs in lockstep, with random
//      cycle budgets and single steps, FSL blocking served by the harness.
//      After every call registers, pc, state, cycles and retired count must
//      match; at halt every memory word, the UART output and the GPIO too.
//      The programs cover every opcode, lw/sw to LMB, SRAM and OPB, taken and
//      untaken branches, brl/jr, blocking and resumed FSL get/put, code in
//      LMB and in SRAM (and calls between them), and a store that rewrites
//      an already-translated instruction ahead of the pc.
//   2. Focused programs for the translation cache, each in lockstep at every
//      cycle budget from 1 to its length and by single steps: skip-one
//      branches taken and not taken with a limit between the branch and
//      its op, stores into the running block (ahead of the pc and earlier
//      in a loop), pokes into a translated block and into a skipped op,
//      straight-line code into an illegal word and off the end of the LMB,
//      code run from the GPIO register, which changes without a RAM write;
//      and more block entries than the table holds, at selected budgets
//      (it runs ~15k cycles).
//   3. The measurement firmware over seeded windows x {soft, hw multiplier}
//      x {SRAM, LMB code}: one resident core run back to back, a fresh core
//      per window and the oracle path agree on every SoftwareRun field, and
//      a second pass over the windows translates no block.
//   4. After those runs the resident core's memory equals a freshly loaded
//      image everywhere but the two sample buffers and the result words.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "refpga/app/software.hpp"
#include "refpga/app/software_reference.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/soc/assembler.hpp"
#include "refpga/soc/cpu.hpp"
#include "refpga/soc/cpu_reference.hpp"
#include "refpga/soc/isa.hpp"
#include "refpga/soc/memory.hpp"

namespace refpga::soc {
namespace {

// ------------------------------------------------------ random programs

constexpr std::uint32_t kLmbData = 0x4000;             // LMB data window
constexpr std::uint32_t kSramData = kSramBase + 0x8000;  // SRAM data window
constexpr std::uint32_t kDataWords = 64;

// Registers with a fixed role; random statements write only the others.
constexpr int kLmbBaseReg = 13;
constexpr int kSramBaseReg = 14;
constexpr int kLinkReg = 15;
constexpr int kOpbBaseReg = 16;
constexpr int kLoopReg = 17;
constexpr int kScratchA = 18;
constexpr int kScratchB = 19;
constexpr int kScratchC = 21;

std::string r(int index) { return "r" + std::to_string(index); }

/// Seeded random program in assembler syntax, plus the opcodes it uses.
class ProgramGenerator {
public:
    explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

    /// `code_base` is kLmbBase or kSramBase; with `far_base` set, one
    /// subroutine lives in the other region and is called through jr.
    std::string generate(std::uint32_t code_base, std::uint32_t far_base) {
        emit(".org " + std::to_string(code_base));
        emit("start:");
        load_const(kLmbBaseReg, kLmbData);
        load_const(kSramBaseReg, kSramData);
        load_const(kOpbBaseReg, kOpbBase);
        for (int i = 0; i < 6; ++i)
            load_const(work_reg(), static_cast<std::uint32_t>(rng_.next_u64()));

        // A loop, so every body instruction runs again from its translation.
        op_line(Opcode::Addi, "addi " + r(kLoopReg) + ", r0, " +
                                  std::to_string(1 + rng_.next_below(4)));
        emit("loop_top:");
        const int body = 20 + static_cast<int>(rng_.next_below(40));
        for (int i = 0; i < body; ++i) statement(/*allow_control=*/true);
        op_line(Opcode::Addi, "addi " + r(kLoopReg) + ", " + r(kLoopReg) + ", -1");
        op_line(Opcode::Bne, "bne  " + r(kLoopReg) + ", r0, loop_top");

        self_modifying_block();
        fsl_block();
        if (far_base != code_base) far_call();
        op_line(Opcode::Halt, "halt");

        for (int s = 0; s < kSubroutines; ++s) {
            emit("sub" + std::to_string(s) + ":");
            for (int i = 0; i < 3; ++i) statement(/*allow_control=*/false);
            op_line(Opcode::Jr, "jr   " + r(kLinkReg));
        }
        if (far_base != code_base) {
            emit(".org " + std::to_string(far_base + 0x100));
            emit("far_sub:");
            for (int i = 0; i < 4; ++i) statement(/*allow_control=*/false);
            op_line(Opcode::Jr, "jr   " + r(kLinkReg));
        }
        return source_;
    }

    [[nodiscard]] const std::set<Opcode>& opcodes() const { return opcodes_; }

private:
    static constexpr int kSubroutines = 2;

    void emit(const std::string& line) { source_ += "    " + line + "\n"; }
    void op_line(Opcode op, const std::string& line) {
        opcodes_.insert(op);
        emit(line);
    }

    int work_reg() {
        // r1..r12, r20, r22..r31: never a base, link, loop or scratch register.
        static const std::vector<int> regs = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                                              10, 11, 12, 20, 22, 23, 24, 25, 26,
                                              27, 28, 29, 30, 31};
        return regs[rng_.next_below(static_cast<std::uint32_t>(regs.size()))];
    }
    int source_reg() { return rng_.next_below(8) == 0 ? 0 : work_reg(); }
    int dest_reg() { return rng_.next_below(16) == 0 ? 0 : work_reg(); }  // r0 drops it

    void load_const(int reg, std::uint32_t value) {
        op_line(Opcode::Lui, "lui  " + r(reg) + ", " + std::to_string(value >> 16));
        op_line(Opcode::Ori,
                "ori  " + r(reg) + ", " + r(reg) + ", " + std::to_string(value & 0xFFFF));
    }
    void load_label(int reg, const std::string& label) {
        op_line(Opcode::Lui, "lui  " + r(reg) + ", hi(" + label + ")");
        op_line(Opcode::Ori, "ori  " + r(reg) + ", " + r(reg) + ", lo(" + label + ")");
    }
    std::string fresh_label() { return "L" + std::to_string(labels_++); }

    void alu_r() {
        static const Opcode ops[] = {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Mulh,
                                     Opcode::And, Opcode::Or,  Opcode::Xor, Opcode::Sll,
                                     Opcode::Srl, Opcode::Sra};
        const Opcode op = ops[rng_.next_below(10)];
        op_line(op, std::string(mnemonic(op)) + " " + r(dest_reg()) + ", " +
                        r(source_reg()) + ", " + r(source_reg()));
    }
    void alu_i() {
        static const Opcode ops[] = {Opcode::Addi, Opcode::Andi, Opcode::Ori,
                                     Opcode::Xori, Opcode::Slli, Opcode::Srli,
                                     Opcode::Srai, Opcode::Lui};
        const Opcode op = ops[rng_.next_below(8)];
        std::int64_t imm = 0;
        if (op == Opcode::Addi)
            imm = static_cast<std::int64_t>(rng_.next_below(65536)) - 32768;
        else if (op == Opcode::Slli || op == Opcode::Srli || op == Opcode::Srai)
            imm = rng_.next_below(32);
        else
            imm = rng_.next_below(65536);
        if (op == Opcode::Lui) {
            op_line(op, "lui  " + r(dest_reg()) + ", " + std::to_string(imm));
            return;
        }
        op_line(op, std::string(mnemonic(op)) + " " + r(dest_reg()) + ", " +
                        r(source_reg()) + ", " + std::to_string(imm));
    }
    void memory_access() {
        const bool store = rng_.next_below(2) == 0;
        int base = kLmbBaseReg;
        std::uint32_t offset = 4 * rng_.next_below(kDataWords);
        switch (rng_.next_below(3)) {
            case 0: break;
            case 1: base = kSramBaseReg; break;
            default: {
                // UART TX, UART status, an unmapped OPB word, GPIO.
                static const std::uint32_t opb[] = {0x0, 0x4, 0x8, 0x10};
                base = kOpbBaseReg;
                offset = opb[rng_.next_below(4)];
            }
        }
        if (store)
            op_line(Opcode::Sw, "sw   " + r(source_reg()) + ", " + r(base) + ", " +
                                    std::to_string(offset));
        else
            op_line(Opcode::Lw, "lw   " + r(dest_reg()) + ", " + r(base) + ", " +
                                    std::to_string(offset));
    }
    void forward_branch() {
        static const Opcode ops[] = {Opcode::Beq, Opcode::Bne,  Opcode::Blt,
                                     Opcode::Bge, Opcode::Bltu, Opcode::Bgeu};
        const Opcode op = ops[rng_.next_below(6)];
        const std::string target = fresh_label();
        int a = source_reg();
        int b = source_reg();
        if (rng_.next_below(4) == 0) b = a;  // equal operands: decided by the kind
        op_line(op, std::string(mnemonic(op)) + " " + r(a) + ", " + r(b) + ", " + target);
        skipped_then(target);
    }
    void skipped_then(const std::string& target) {
        const int skip = static_cast<int>(rng_.next_below(4));
        for (int i = 0; i < skip; ++i) statement(/*allow_control=*/false);
        emit(target + ":");
    }
    void fsl_access() {
        const int link = static_cast<int>(rng_.next_below(Cpu::kFslLinks));
        if (rng_.next_below(2) == 0)
            op_line(Opcode::Get, "get  " + r(dest_reg()) + ", " + std::to_string(link));
        else
            op_line(Opcode::Put, "put  " + r(source_reg()) + ", " + std::to_string(link));
    }

    void statement(bool allow_control) {
        const std::uint32_t pick = rng_.next_below(allow_control ? 100 : 70);
        if (pick < 25) {
            alu_r();
        } else if (pick < 45) {
            alu_i();
        } else if (pick < 62) {
            memory_access();
        } else if (pick < 70) {
            fsl_access();
        } else if (pick < 85) {
            forward_branch();
        } else if (pick < 90) {
            const std::string target = fresh_label();
            op_line(Opcode::Br, "br   " + target);
            skipped_then(target);
        } else if (pick < 96) {
            op_line(Opcode::Brl,
                    "brl  sub" + std::to_string(rng_.next_below(kSubroutines)));
        } else {
            // Computed jump through a register other than the link register.
            const std::string target = fresh_label();
            load_label(kScratchA, target);
            op_line(Opcode::Jr, "jr   " + r(kScratchA));
            skipped_then(target);
        }
    }

    // Three passes over `smc_target`: the first decodes the original
    // instruction, the second rewrites it from a store just ahead of it and
    // runs the new one, the third runs the new one again.
    void self_modifying_block() {
        Instruction replacement;
        replacement.op = Opcode::Addi;
        replacement.rd = 5;
        replacement.ra = 5;
        replacement.imm = 1000 + static_cast<std::int32_t>(rng_.next_below(1000));
        load_label(kScratchA, "smc_target");
        load_const(kScratchB, encode(replacement));
        op_line(Opcode::Addi, "addi " + r(kScratchC) + ", r0, 2");
        op_line(Opcode::Addi, "addi " + r(kLoopReg) + ", r0, 3");
        emit("smc_loop:");
        op_line(Opcode::Bne, "bne  " + r(kLoopReg) + ", " + r(kScratchC) + ", smc_skip");
        op_line(Opcode::Sw, "sw   " + r(kScratchB) + ", " + r(kScratchA) + ", 0");
        emit("smc_skip:");
        emit("smc_target:");
        op_line(Opcode::Addi, "addi r5, r5, 7");
        op_line(Opcode::Addi, "addi " + r(kLoopReg) + ", " + r(kLoopReg) + ", -1");
        op_line(Opcode::Bne, "bne  " + r(kLoopReg) + ", r0, smc_loop");
    }

    // A get on an empty link blocks until the harness feeds it; a burst of
    // puts beyond the FIFO depth blocks until the harness drains it.
    void fsl_block() {
        const int link = static_cast<int>(rng_.next_below(Cpu::kFslLinks));
        op_line(Opcode::Get, "get  " + r(work_reg()) + ", " + std::to_string(link));
        const int out = static_cast<int>(rng_.next_below(Cpu::kFslLinks));
        for (int i = 0; i < 20; ++i)
            op_line(Opcode::Put, "put  " + r(source_reg()) + ", " + std::to_string(out));
    }

    void far_call() {
        load_label(kLinkReg, "far_return");
        load_label(kScratchA, "far_sub");
        op_line(Opcode::Jr, "jr   " + r(kScratchA));
        emit("far_return:");
    }

    Rng rng_;
    std::string source_;
    std::set<Opcode> opcodes_;
    int labels_ = 0;
};

template <class Core>
struct Rig {
    MemorySystem mem;
    Core cpu;
    std::vector<std::uint32_t> drained;  ///< words the CPU put, in order
    std::uint32_t next_feed = 0x1234'0000;

    Rig(const MemoryConfig& config, const CpuCosts& costs, const Program& program,
        std::uint32_t entry)
        : mem(config), cpu(mem, costs) {
        mem.load(program);
        cpu.fsl_to_cpu(0).write(0xFEED'0001);  // one get may find data at once
        cpu.reset(entry);
    }

    /// The hardware side of the FSL links: drain every output, refill every
    /// empty input.
    void serve_fsl() {
        for (int l = 0; l < Cpu::kFslLinks; ++l) {
            FslLink& out = cpu.fsl_from_cpu(l);
            while (out.can_read()) drained.push_back(out.read());
            if (!cpu.fsl_to_cpu(l).can_read()) cpu.fsl_to_cpu(l).write(next_feed++);
        }
    }
};

template <class A, class B>
void expect_same_cpu(const A& a, const B& b, const std::string& where) {
    ASSERT_EQ(a.state(), b.state()) << where;
    ASSERT_EQ(a.pc(), b.pc()) << where;
    ASSERT_EQ(a.cycles(), b.cycles()) << where;
    ASSERT_EQ(a.retired(), b.retired()) << where;
    for (int i = 0; i < 32; ++i) ASSERT_EQ(a.reg(i), b.reg(i)) << where << " r" << i;
}

void expect_same_memory(const MemorySystem& a, const MemorySystem& b,
                        const std::string& where) {
    ASSERT_EQ(a.uart_output(), b.uart_output()) << where;
    ASSERT_EQ(a.gpio(), b.gpio()) << where;
    for (std::uint32_t addr = 0; addr < a.config().lmb_bytes; addr += 4)
        ASSERT_EQ(a.peek(addr), b.peek(addr)) << where << " LMB " << addr;
    for (std::uint32_t off = 0; off < a.config().sram_bytes; off += 4)
        ASSERT_EQ(a.peek(kSramBase + off), b.peek(kSramBase + off))
            << where << " SRAM +" << off;
}

TEST(SocDiff, RandomProgramsMatchTheReference) {
    constexpr int kPrograms = 200;
    std::set<Opcode> covered;
    std::int64_t blocked_calls = 0;
    for (int seed = 0; seed < kPrograms; ++seed) {
        Rng pick(0x50C0'0000 + static_cast<std::uint64_t>(seed));
        const std::uint32_t code_base = seed % 2 == 0 ? kLmbBase : kSramBase;
        const std::uint32_t far_base =
            seed % 3 == 0 ? (code_base == kLmbBase ? kSramBase : kLmbBase + 0x2000)
                          : code_base;
        ProgramGenerator gen(0xD1FF'0000 + static_cast<std::uint64_t>(seed));
        const std::string source = gen.generate(code_base, far_base);
        covered.insert(gen.opcodes().begin(), gen.opcodes().end());
        const Program program = assemble(source);

        MemoryConfig config;
        config.sram_bytes = 64 * 1024;
        config.lmb_latency = 1 + static_cast<int>(pick.next_below(2));
        config.sram_latency = 2 + static_cast<int>(pick.next_below(6));
        config.opb_latency = 2 + static_cast<int>(pick.next_below(4));
        CpuCosts costs;
        if (seed % 4 == 3) {
            costs.alu = 1 + static_cast<int>(pick.next_below(2));
            costs.mul = 2 + static_cast<int>(pick.next_below(4));
            costs.load_store = 1 + static_cast<int>(pick.next_below(3));
            costs.branch_taken = 2 + static_cast<int>(pick.next_below(3));
            costs.branch_not_taken = 1 + static_cast<int>(pick.next_below(2));
        }

        Rig<Cpu> fast(config, costs, program, code_base);
        Rig<CpuReference> ref(config, costs, program, code_base);
        const std::string where = "program " + std::to_string(seed);
        for (int call = 0;; ++call) {
            ASSERT_LT(call, 200'000) << where << ": did not halt";
            if (pick.next_below(4) == 0) {
                fast.cpu.step();
                ref.cpu.step();
            } else {
                const std::int64_t budget = 1 + pick.next_below(64);
                fast.cpu.run(budget);
                ref.cpu.run(budget);
            }
            expect_same_cpu(fast.cpu, ref.cpu, where + ", call " + std::to_string(call));
            if (::testing::Test::HasFatalFailure()) return;
            if (fast.cpu.state() == CpuState::Halted) break;
            if (fast.cpu.state() == CpuState::BlockedOnFsl) {
                ++blocked_calls;
                fast.serve_fsl();
                ref.serve_fsl();
            }
        }
        fast.serve_fsl();
        ref.serve_fsl();
        ASSERT_EQ(fast.drained, ref.drained) << where;
        expect_same_memory(fast.mem, ref.mem, where);
        if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(covered.size(), static_cast<std::size_t>(kOpcodeCount));
    EXPECT_GT(blocked_calls, kPrograms);  // at least the put burst in each
}

TEST(SocDiff, PokedCodeIsReDecoded) {
    // A poke into translated code bumps the code-write epoch, so code
    // changed from outside between runs executes as written.
    const Program program = assemble(R"(
        addi r1, r0, 0
        addi r2, r0, 10
    loop:
        addi r1, r1, 1
        addi r2, r2, -1
        bne  r2, r0, loop
        halt
    )");
    MemorySystem fast_mem;
    MemorySystem ref_mem;
    fast_mem.load(program);
    ref_mem.load(program);
    Cpu fast(fast_mem);
    CpuReference ref(ref_mem);
    fast.reset();
    ASSERT_EQ(fast.run(10'000), CpuState::Halted);
    EXPECT_EQ(fast.reg(1), 10u);

    Instruction by_three;
    by_three.op = Opcode::Addi;
    by_three.rd = 1;
    by_three.ra = 1;
    by_three.imm = 3;
    fast_mem.poke(8, encode(by_three));
    ref_mem.poke(8, encode(by_three));
    fast.reset();
    ref.reset();
    EXPECT_EQ(fast.run(10'000), CpuState::Halted);
    EXPECT_EQ(ref.run(10'000), CpuState::Halted);
    EXPECT_EQ(fast.reg(1), 30u);
    expect_same_cpu(fast, ref, "after poke");
}

TEST(SocDiff, FaultsMatchTheReference) {
    // Each program ends in a contract violation; both CPUs must throw at the
    // same instruction and leave the same state behind.
    const std::vector<std::string> programs = {
        "  addi r1, r0, 1\n  .word 4227858432\n",       // opcode 63: illegal
        "  addi r1, r0, 6\n  jr r1\n",                  // misaligned fetch
        "  lui r1, 1\n  lw r2, r1, 0\n",                // past the end of LMB
        "  addi r1, r0, 2\n  sw r1, r1, 0\n",           // misaligned store
        "  lui r1, 32768\n  ori r1, r1, 2\n  lw r2, r1, 0\n",  // misaligned SRAM load
    };
    for (const std::string& source : programs) {
        const Program program = assemble(source);
        MemorySystem fast_mem;
        MemorySystem ref_mem;
        fast_mem.load(program);
        ref_mem.load(program);
        Cpu fast(fast_mem);
        CpuReference ref(ref_mem);
        fast.reset();
        ref.reset();
        EXPECT_THROW(fast.run(1000), ContractViolation) << source;
        EXPECT_THROW(ref.run(1000), ContractViolation) << source;
        expect_same_cpu(fast, ref, source);
    }
}

// ------------------------------------------------------ translation cache

/// Memory small enough to compare word by word after every lockstep pass.
MemoryConfig small_memory() {
    MemoryConfig config;
    config.lmb_bytes = 16 * 1024;
    config.sram_bytes = 4 * 1024;
    return config;
}

std::uint32_t word_of(Opcode op, int rd, int ra, std::int32_t imm) {
    Instruction insn;
    insn.op = op;
    insn.rd = static_cast<std::uint8_t>(rd);
    insn.ra = static_cast<std::uint8_t>(ra);
    insn.imm = imm;
    return encode(insn);
}

/// A program run on both CPUs in lockstep. `poke`, when set, writes into
/// both memories twice: after the first call (pass 0) and at the next halt
/// after it (pass 1). A poke at a halt restarts both CPUs at `entry`.
struct LockstepCase {
    std::string source;
    std::uint32_t entry = 0;
    MemoryConfig config = small_memory();
    CpuCosts costs{};
    std::function<void(MemorySystem&, int pass)> poke;
};

template <class Core>
struct Side {
    MemorySystem mem;
    Core cpu;
    bool threw = false;

    Side(const LockstepCase& c, const Program& program)
        : mem(c.config), cpu(mem, c.costs) {
        mem.load(program);
        cpu.reset(c.entry);
    }
    /// One run(budget) call, or one step() when budget is 0; a contract
    /// violation ends the program.
    void call(std::int64_t budget) {
        try {
            if (budget > 0)
                cpu.run(budget);
            else
                cpu.step();
        } catch (const ContractViolation&) {
            threw = true;
        }
    }
};

/// One lockstep pass at `budget` cycles per run() call (single steps when
/// 0), comparing the CPUs after every call and the memories at the end.
/// Returns the reference's cycle count at the end of the program.
std::int64_t lockstep_pass(const LockstepCase& c, const Program& program,
                           std::int64_t budget) {
    Side<Cpu> fast(c, program);
    Side<CpuReference> ref(c, program);
    const std::string where = "budget " + std::to_string(budget);
    int pokes = 0;
    std::int64_t total = 0;
    for (int call = 0;; ++call) {
        EXPECT_LT(call, 1'000'000) << where << ": did not halt";
        if (call >= 1'000'000) break;
        fast.call(budget);
        ref.call(budget);
        const std::string at = where + ", call " + std::to_string(call);
        EXPECT_EQ(fast.threw, ref.threw) << at;
        expect_same_cpu(fast.cpu, ref.cpu, at);
        EXPECT_LE(fast.cpu.cached_ops(), Cpu::kArenaOps) << at;
        if (::testing::Test::HasFailure()) break;
        if (ref.threw) {
            total += ref.cpu.cycles();
            break;
        }
        const bool halted = ref.cpu.state() == CpuState::Halted;
        if (c.poke && pokes < 2 && (pokes == 0 || halted)) {
            c.poke(fast.mem, pokes);
            c.poke(ref.mem, pokes);
            ++pokes;
            if (halted) {
                total += ref.cpu.cycles();
                fast.cpu.reset(c.entry);
                ref.cpu.reset(c.entry);
                continue;
            }
        }
        if (halted) {
            total += ref.cpu.cycles();
            break;
        }
    }
    expect_same_memory(fast.mem, ref.mem, where);
    return total;
}

/// Lockstep at every budget from 1 to the program's length in cycles, and
/// by single steps.
void lockstep_every_budget(const LockstepCase& c) {
    const Program program = assemble(c.source);
    const std::int64_t length = lockstep_pass(c, program, 0);
    ASSERT_GT(length, 0);
    for (std::int64_t budget = 1; budget <= length; ++budget) {
        lockstep_pass(c, program, budget);
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(SocTranslation, SkipOneBranchesAgreeAtEveryLimit) {
    // The firmware's conditional-move idiom: each branch jumps over exactly
    // one ALU op, taken on some iterations and not on others, with code in
    // LMB and in SRAM (fetch latency 1 and 5), so some budget ends between
    // each branch and its skipped op.
    const std::string body = R"(
        addi r1, r0, 0
        addi r2, r0, 2
        addi r9, r0, 4
    loop:
        bgeu r1, r2, skip_a      ; taken from the third iteration
        addi r3, r3, 1
    skip_a:
        bltu r1, r2, skip_b      ; taken on the first two
        sub  r4, r4, r1
    skip_b:
        beq  r1, r0, skip_c      ; taken on the first only
        mul  r5, r1, r9
    skip_c:
        addi r1, r1, 1
        bne  r1, r9, loop
        halt
    )";
    LockstepCase lmb;
    lmb.source = body;
    lockstep_every_budget(lmb);

    // Three blocks: the prologue running into the loop body, the loop body
    // from `loop` (each branch over one op stays inside it) and the halt.
    MemorySystem mem;
    mem.load(assemble(body));
    Cpu cpu(mem);
    ASSERT_EQ(cpu.run(10'000), CpuState::Halted);
    EXPECT_EQ(cpu.translations(), 3);

    LockstepCase sram;
    sram.source = "    .org " + std::to_string(kSramBase) + "\n" + body;
    sram.entry = kSramBase;
    sram.costs.branch_taken = 4;
    lockstep_every_budget(sram);
}

TEST(SocTranslation, StoresIntoTranslatedCodeTakeEffect) {
    // A store that rewrites the next instruction of its own block.
    LockstepCase next;
    next.source = R"(
        lui  r1, hi(target)
        ori  r1, r1, lo(target)
        lui  r2, )" + std::to_string(word_of(Opcode::Addi, 5, 5, 100) >> 16) + R"(
        ori  r2, r2, )" + std::to_string(word_of(Opcode::Addi, 5, 5, 100) & 0xFFFF) + R"(
        sw   r2, r1, 0
    target:
        addi r5, r5, 1
        addi r6, r6, 1
        halt
    )";
    lockstep_every_budget(next);
    {
        MemorySystem mem;
        mem.load(assemble(next.source));
        Cpu cpu(mem);
        ASSERT_EQ(cpu.run(10'000), CpuState::Halted);
        EXPECT_EQ(cpu.reg(5), 100u);
    }

    // A store that rewrites the first instruction of the loop block it runs
    // in: the first iteration adds 1, the later two add 100.
    LockstepCase loop;
    loop.source = R"(
        addi r6, r0, 3
        lui  r1, hi(loop)
        ori  r1, r1, lo(loop)
        lui  r2, )" + std::to_string(word_of(Opcode::Addi, 5, 5, 100) >> 16) + R"(
        ori  r2, r2, )" + std::to_string(word_of(Opcode::Addi, 5, 5, 100) & 0xFFFF) + R"(
    loop:
        addi r5, r5, 1
        sw   r2, r1, 0
        addi r6, r6, -1
        bne  r6, r0, loop
        halt
    )";
    lockstep_every_budget(loop);

    const Program program = assemble(loop.source);
    MemorySystem mem;
    mem.load(program);
    Cpu cpu(mem);
    ASSERT_EQ(cpu.run(10'000), CpuState::Halted);
    EXPECT_EQ(cpu.reg(5), 201u);
}

TEST(SocTranslation, PokesBetweenRunsTakeEffect) {
    const std::string source = R"(
        addi r1, r0, 0
        addi r2, r0, 2
        addi r9, r0, 4
    loop:
        addi r3, r3, 1
        addi r4, r4, 2           ; middle of the loop block
        bltu r1, r2, skip
        addi r5, r5, 3           ; skipped op
    skip:
        addi r1, r1, 1
        bne  r1, r9, loop
        halt
    )";
    const Program program = assemble(source);
    const std::uint32_t loop = program.labels.at("loop");

    // Into the middle of a translated block.
    LockstepCase middle;
    middle.source = source;
    middle.poke = [&](MemorySystem& mem, int pass) {
        mem.poke(loop + 4, word_of(Opcode::Addi, 4, 4, 20 + pass));
    };
    lockstep_every_budget(middle);

    // Into the op a skip-one branch jumps over.
    LockstepCase skipped;
    skipped.source = source;
    skipped.poke = [&](MemorySystem& mem, int pass) {
        mem.poke(loop + 12, word_of(Opcode::Xori, 5, 5, 0x5A + pass));
    };
    lockstep_every_budget(skipped);
}

TEST(SocTranslation, ReadAheadStopsBeforeAFault) {
    // Straight-line code into an illegal word: no fault until it executes.
    LockstepCase illegal;
    illegal.source = R"(
        addi r1, r0, 1
        addi r2, r0, 2
        sw   r2, r0, 256
        addi r3, r0, 3
        .word 4227858432
        addi r4, r0, 4
    )";
    lockstep_every_budget(illegal);

    // Straight-line code that runs off the end of the LMB without a branch.
    LockstepCase lmb_end;
    lmb_end.entry = small_memory().lmb_bytes - 16;
    lmb_end.source = "    .org " + std::to_string(lmb_end.entry) + R"(
        addi r1, r0, 1
        addi r2, r0, 2
        addi r3, r0, 3
        addi r4, r0, 4
    )";
    lockstep_every_budget(lmb_end);

    // A branch over the last LMB word is no skip-one branch: the word after
    // its op cannot be fetched.
    LockstepCase last_word;
    last_word.entry = small_memory().lmb_bytes - 16;
    last_word.source = "    .org " + std::to_string(last_word.entry) + R"(
        addi r1, r0, 1
        addi r2, r0, 2
        bne  r1, r2, end
        addi r3, r0, 3
    end:
    )";
    lockstep_every_budget(last_word);

    // Each ends in the reference's fault, after every word before it.
    for (const LockstepCase* c : {&illegal, &lmb_end, &last_word}) {
        const Program program = assemble(c->source);
        MemorySystem mem(c->config);
        mem.load(program);
        Cpu cpu(mem);
        cpu.reset(c->entry);
        EXPECT_THROW(cpu.run(1000), ContractViolation);
        EXPECT_EQ(cpu.retired(), c == &last_word ? 3 : 4);
    }
}

TEST(SocTranslation, CodeInTheOpbWindowIsNeverKept) {
    // The GPIO register is fetchable code that changes without a RAM write:
    // the program runs it twice, first as `jr r5`, then as `jr r6`.
    const auto hi = [](std::uint32_t v) { return std::to_string(v >> 16); };
    const auto lo = [](std::uint32_t v) { return std::to_string(v & 0xFFFF); };
    Instruction jr;
    jr.op = Opcode::Jr;
    jr.ra = 5;
    const std::uint32_t jr_r5 = encode(jr);
    jr.ra = 6;
    const std::uint32_t jr_r6 = encode(jr);
    LockstepCase gpio;
    gpio.source = R"(
        lui  r1, )" + hi(kGpioAddr) + R"(
        ori  r1, r1, )" + lo(kGpioAddr) + R"(
        lui  r2, )" + hi(jr_r5) + R"(
        ori  r2, r2, )" + lo(jr_r5) + R"(
        lui  r3, )" + hi(jr_r6) + R"(
        ori  r3, r3, )" + lo(jr_r6) + R"(
        lui  r5, hi(back1)
        ori  r5, r5, lo(back1)
        lui  r6, hi(back2)
        ori  r6, r6, lo(back2)
        sw   r2, r1, 0
        jr   r1
    back1:
        addi r7, r7, 1
        sw   r3, r1, 0
        jr   r1
    back2:
        addi r8, r8, 1
        halt
    )";
    lockstep_every_budget(gpio);
}

TEST(SocTranslation, MoreBlockEntriesThanTheTableHolds) {
    // A chain of 200 more two-op blocks than the table has slots, run three
    // times: slots collide, evicted blocks are translated again and the
    // arena reaches its cap.
    const int blocks = static_cast<int>(Cpu::kBlockSlots) + 200;
    std::string source = "    addi r9, r0, 3\nstart:\n";
    for (int i = 0; i < blocks; ++i)
        source += "b" + std::to_string(i) + ":\n    addi r1, r1, " +
                  std::to_string(i % 7) + "\n    br   b" + std::to_string(i + 1) + "\n";
    source += "b" + std::to_string(blocks) +
              ":\n    addi r9, r9, -1\n    bne  r9, r0, start\n    halt\n";
    LockstepCase chain;
    chain.source = source;
    chain.config.lmb_bytes = 32 * 1024;
    const Program program = assemble(source);

    // Single steps, short budgets (every instruction a block entry) and
    // whole runs; a full sweep to the ~15k-cycle length adds nothing the
    // short programs above do not cover.
    for (const std::int64_t budget : {0, 1, 2, 3, 5, 8, 13, 64, 1000, 1'000'000}) {
        lockstep_pass(chain, program, budget);
        if (HasFailure()) return;
    }
    MemorySystem mem(chain.config);
    mem.load(program);
    Cpu cpu(mem);
    ASSERT_EQ(cpu.run(1'000'000), CpuState::Halted);
    EXPECT_GT(cpu.translations(), 3 * static_cast<std::int64_t>(Cpu::kBlockSlots));
    EXPECT_LE(cpu.cached_ops(), Cpu::kArenaOps);
}

}  // namespace
}  // namespace refpga::soc

// ------------------------------------------------------ resident firmware

namespace refpga::app {
namespace {

constexpr int kWindows = 100;

/// Seeded measurement windows: tones of random amplitude and phase with
/// noise, plus silent and clipped windows that drive the firmware's
/// saturation paths.
void make_window(Rng& rng, const AppParams& p, int index, std::vector<std::int32_t>& meas,
                 std::vector<std::int32_t>& ref) {
    meas.assign(static_cast<std::size_t>(p.window), 0);
    ref.assign(static_cast<std::size_t>(p.window), 0);
    if (index % 25 == 0) return;  // both channels silent: divide by zero
    const double am = index % 25 == 1 ? 30000.0 : 20.0 + 2000.0 * rng.next_double();
    const double ar = index % 25 == 2 ? 0.0 : 20.0 + 2000.0 * rng.next_double();
    const double pm = 2.0 * M_PI * rng.next_double();
    const double pr = 2.0 * M_PI * rng.next_double();
    for (int n = 0; n < p.window; ++n) {
        const double phase = 2.0 * M_PI * p.bin * n / p.window;
        const auto i = static_cast<std::size_t>(n);
        meas[i] = static_cast<std::int32_t>(
            std::lround(am * std::sin(phase + pm) + 40.0 * rng.next_gaussian()));
        ref[i] = static_cast<std::int32_t>(
            std::lround(ar * std::sin(phase + pr) + 40.0 * rng.next_gaussian()));
    }
}

void expect_same_run(const SoftwareRun& a, const SoftwareRun& b,
                     const std::string& where) {
    EXPECT_EQ(a.amp_meas, b.amp_meas) << where;
    EXPECT_EQ(a.phase_meas, b.phase_meas) << where;
    EXPECT_EQ(a.amp_ref, b.amp_ref) << where;
    EXPECT_EQ(a.phase_ref, b.phase_ref) << where;
    EXPECT_EQ(a.ratio_q12, b.ratio_q12) << where;
    EXPECT_EQ(a.cap_pf_q4, b.cap_pf_q4) << where;
    EXPECT_EQ(a.level_q15, b.level_q15) << where;
    EXPECT_EQ(a.cycles, b.cycles) << where;
    EXPECT_EQ(a.code_bytes, b.code_bytes) << where;
}

/// True for the words a window may change: the two sample buffers and the
/// result block.
bool window_written(std::uint32_t addr, const AppParams& p,
                    const SoftwareLayout& layout) {
    const auto buffer = static_cast<std::uint32_t>(4 * p.window);
    return (addr >= layout.meas_buf && addr < layout.meas_buf + buffer) ||
           (addr >= layout.ref_buf && addr < layout.ref_buf + buffer) ||
           (addr >= layout.result_base && addr < layout.result_base + 4 * 7);
}

struct FirmwareCase {
    bool hw_multiplier;
    bool code_in_sram;
};

class FirmwareDiff : public ::testing::TestWithParam<FirmwareCase> {};

TEST_P(FirmwareDiff, ResidentFreshAndOraclePathsAgree) {
    const AppParams p;
    const SoftwareLayout layout;
    SoftwareConfig config;
    config.hw_multiplier = GetParam().hw_multiplier;
    config.code_in_sram = GetParam().code_in_sram;

    SoftCore resident(p, config);
    const std::uint64_t seed = 0xF1A5'0000 + (config.hw_multiplier ? 1u : 0u) +
                               (config.code_in_sram ? 2u : 0u);
    Rng rng(seed);
    std::vector<std::int32_t> meas;
    std::vector<std::int32_t> ref;
    std::vector<SoftwareRun> runs;
    for (int w = 0; w < kWindows; ++w) {
        make_window(rng, p, w, meas, ref);
        const std::string where = "window " + std::to_string(w);
        const SoftwareRun oracle = run_software_cycle_reference(meas, ref, p, config);
        runs.push_back(resident.run(meas, ref));
        expect_same_run(runs.back(), oracle, where + " (resident)");
        expect_same_run(SoftCore(p, config).run(meas, ref), oracle, where + " (fresh)");
        if (HasFailure()) return;
    }

    // The first pass translated every path the windows take. Neither the
    // sample-buffer pokes nor the result stores touch translated code, so a
    // second pass over the same windows translates nothing.
    const std::int64_t translated = resident.cpu().translations();
    EXPECT_GT(translated, 0);
    Rng replay(seed);
    for (int w = 0; w < kWindows; ++w) {
        make_window(replay, p, w, meas, ref);
        expect_same_run(resident.run(meas, ref), runs[static_cast<std::size_t>(w)],
                        "window " + std::to_string(w) + " (second pass)");
        ASSERT_EQ(resident.cpu().translations(), translated) << "window " << w;
    }

    // Everything but the sample buffers and the results is the loaded image.
    soc::MemorySystem image;
    image.load(soc::assemble(measurement_source(p, config, layout)));
    const soc::MemorySystem& mem = resident.memory();
    EXPECT_TRUE(mem.uart_output().empty());
    for (std::uint32_t addr = 0; addr < mem.config().lmb_bytes; addr += 4)
        ASSERT_EQ(mem.peek(addr), image.peek(addr)) << "LMB " << addr;
    for (std::uint32_t off = 0; off < mem.config().sram_bytes; off += 4) {
        const std::uint32_t addr = soc::kSramBase + off;
        if (window_written(addr, p, layout)) continue;
        ASSERT_EQ(mem.peek(addr), image.peek(addr)) << "SRAM " << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FirmwareDiff,
    ::testing::Values(FirmwareCase{false, true}, FirmwareCase{true, true},
                      FirmwareCase{false, false}, FirmwareCase{true, false}),
    [](const ::testing::TestParamInfo<FirmwareCase>& info) {
        return std::string(info.param.hw_multiplier ? "HwMul" : "SoftMul") +
               (info.param.code_in_sram ? "SramCode" : "LmbCode");
    });

}  // namespace
}  // namespace refpga::app
