// Cycle-approximate soft-core CPU (MicroBlaze-subset).
//
// Three-stage-pipeline cost model: most instructions retire in 1 cycle plus
// the fetch latency of their code region; multiplies take 3, taken branches
// flush 2 slots, loads/stores add the data region's latency. FSL get/put
// block until the link has data/space, like MicroBlaze's fsl instructions.
//
// Each instruction is decoded once: a direct-mapped cache keyed by pc holds
// the decoded form next to the word it came from, and every fetch still
// reads memory and re-decodes on a mismatch — so pokes and self-modifying
// stores behave exactly as with a decode per step. The per-step reference
// interpreter (tests/support, `CpuReference`) pins this bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "refpga/soc/isa.hpp"
#include "refpga/soc/memory.hpp"

namespace refpga::soc {

/// Fast Simplex Link: unidirectional FIFO word channel.
class FslLink {
public:
    explicit FslLink(std::size_t depth = 16) : depth_(depth) {}

    [[nodiscard]] bool can_write() const { return fifo_.size() < depth_; }
    [[nodiscard]] bool can_read() const { return !fifo_.empty(); }
    [[nodiscard]] std::size_t size() const { return fifo_.size(); }

    void write(std::uint32_t v);
    [[nodiscard]] std::uint32_t read();

private:
    std::size_t depth_;
    std::deque<std::uint32_t> fifo_;
};

enum class CpuState { Running, Halted, BlockedOnFsl };

struct CpuCosts {
    int alu = 1;
    int mul = 3;
    int load_store = 1;      ///< plus data-region latency
    int branch_taken = 3;
    int branch_not_taken = 1;
};

class Cpu {
public:
    static constexpr int kFslLinks = 8;

    Cpu(MemorySystem& memory, CpuCosts costs = {});

    void reset(std::uint32_t pc = 0);

    [[nodiscard]] CpuState state() const { return state_; }
    [[nodiscard]] std::uint32_t pc() const { return pc_; }
    [[nodiscard]] std::int64_t cycles() const { return cycles_; }
    [[nodiscard]] std::int64_t retired() const { return retired_; }

    [[nodiscard]] std::uint32_t reg(int index) const;
    void set_reg(int index, std::uint32_t value);

    [[nodiscard]] FslLink& fsl_to_cpu(int link);    ///< hardware -> CPU (get)
    [[nodiscard]] FslLink& fsl_from_cpu(int link);  ///< CPU -> hardware (put)

    /// Executes one instruction (or stalls one cycle when FSL-blocked).
    /// Returns the new state.
    CpuState step();

    /// Runs until halt or `max_cycles` elapse. Returns the final state.
    CpuState run(std::int64_t max_cycles);

private:
    /// One decode-cache slot: the word last fetched at a pc mapping here and
    /// its decoded form.
    struct DecodedSlot {
        std::uint32_t word = 0;
        Instruction insn;
    };
    /// Slot count, a power of two. The firmware's kernel is ~1k words.
    static constexpr std::uint32_t kDecodeSlots = 2048;

    /// One instruction, or one stall cycle when FSL-blocked: the body of
    /// step() and run().
    void execute();

    MemorySystem& mem_;
    CpuCosts costs_;
    std::vector<DecodedSlot> decoded_;
    std::array<std::uint32_t, 32> regs_{};
    std::array<FslLink, kFslLinks> fsl_in_;   ///< hardware -> CPU
    std::array<FslLink, kFslLinks> fsl_out_;  ///< CPU -> hardware
    std::uint32_t pc_ = 0;
    std::int64_t cycles_ = 0;
    std::int64_t retired_ = 0;
    CpuState state_ = CpuState::Running;
};

}  // namespace refpga::soc
