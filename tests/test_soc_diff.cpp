// Differential tests for the soft core: the library's decode-cached `Cpu`
// and the resident firmware (`app::SoftCore`) against the test-support
// oracles (`soc::CpuReference`, `app::run_software_cycle_reference`).
//
//   1. Seeded random programs run on both CPUs in lockstep, with random
//      cycle budgets and single steps, FSL blocking served by the harness.
//      After every call registers, pc, state, cycles and retired count must
//      match; at halt every memory word, the UART output and the GPIO too.
//      The programs cover every opcode, lw/sw to LMB, SRAM and OPB, taken and
//      untaken branches, brl/jr, blocking and resumed FSL get/put, code in
//      LMB and in SRAM (and calls between them), and a store that rewrites
//      an already-decoded instruction ahead of the pc.
//   2. The measurement firmware over seeded windows x {soft, hw multiplier}
//      x {SRAM, LMB code}: one resident core run back to back, a fresh core
//      per window and the oracle path agree on every SoftwareRun field.
//   3. After those runs the resident core's memory equals a freshly loaded
//      image everywhere but the two sample buffers and the result words.
#include <gtest/gtest.h>

#include <cmath>
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

        // A loop, so the decode cache sees every body instruction again.
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
    // The decode cache is checked against the fetched word, so code changed
    // from outside between runs executes as written.
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
    Rng rng(0xF1A5'0000 + (config.hw_multiplier ? 1u : 0u) +
            (config.code_in_sram ? 2u : 0u));
    std::vector<std::int32_t> meas;
    std::vector<std::int32_t> ref;
    for (int w = 0; w < kWindows; ++w) {
        make_window(rng, p, w, meas, ref);
        const std::string where = "window " + std::to_string(w);
        const SoftwareRun oracle = run_software_cycle_reference(meas, ref, p, config);
        expect_same_run(resident.run(meas, ref), oracle, where + " (resident)");
        expect_same_run(SoftCore(p, config).run(meas, ref), oracle, where + " (fresh)");
        if (HasFailure()) return;
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
