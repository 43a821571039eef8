// Cycle-approximate soft-core CPU (MicroBlaze-subset).
//
// Three-stage-pipeline cost model: most instructions retire in 1 cycle plus
// the fetch latency of their code region; multiplies take 3, taken branches
// flush 2 slots, loads/stores add the data region's latency. FSL get/put
// block until the link has data/space, like MicroBlaze's fsl instructions.
//
// The CPU runs from translated basic blocks. On first entry at a pc it
// translates the straight-line run up to the first control transfer or halt
// into pre-decoded ops that carry their static cost (fetch latency folded
// in), their prepared immediate and absolute branch target. A conditional
// branch over exactly one ALU op stays inside its block. The memory system
// watches every translated word and bumps a code-write epoch on any write
// into one; the CPU drops all its blocks when the epoch moves, checking at
// block entry and after every store. So pokes and self-modifying stores
// behave exactly as with a decode per step, which the per-step reference
// interpreter (tests/support, `CpuReference`) pins bit for bit.
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
    /// Block-table slots, a power of two: blocks are found by entry pc in a
    /// direct-mapped table. The firmware kernel is ~210 words of code.
    static constexpr std::uint32_t kBlockSlots = 1024;
    /// Ops in the translation arena; reaching it drops every block.
    static constexpr std::size_t kArenaOps = 4096;
    /// Longest block; a longer straight-line run continues in the next one.
    static constexpr int kMaxBlockOps = 64;

    Cpu(MemorySystem& memory, CpuCosts costs = {});

    void reset(std::uint32_t pc = 0);

    [[nodiscard]] CpuState state() const { return state_; }
    [[nodiscard]] std::uint32_t pc() const { return pc_; }
    [[nodiscard]] std::int64_t cycles() const { return cycles_; }
    [[nodiscard]] std::int64_t retired() const { return retired_; }

    /// Blocks translated since construction (reset() keeps the blocks).
    [[nodiscard]] std::int64_t translations() const { return translations_; }
    /// Ops held in the translation arena, at most kArenaOps.
    [[nodiscard]] std::size_t cached_ops() const { return arena_.size(); }

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
    /// One pre-decoded instruction of a block.
    struct Op {
        Opcode op = Opcode::Halt;
        std::uint8_t rd = 0;  ///< written register; kSink stands in for r0
        std::uint8_t ra = 0;
        std::uint8_t rb = 0;  ///< rb, sw's data register or a branch's second operand
        /// 1 when the block goes on after this op, 0 when it ends here. A
        /// conditional branch with 1 is a skip-one branch: taken, it steps
        /// over the ALU op that follows it.
        std::uint8_t advance = 0;
        std::uint32_t imm = 0;     ///< immediate as used: sign-extended, masked or shifted
        std::uint32_t target = 0;  ///< absolute branch target
        std::int32_t cost = 0;        ///< static cycles (not taken, for a branch)
        std::int32_t taken_cost = 0;  ///< static cycles of a taken branch
    };
    /// A block-table slot: the entry pc and the block's first op in arena_.
    struct Slot {
        std::uint32_t pc = 0;
        std::uint32_t first = kNoBlock;
    };
    static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};
    /// Register slot that receives writes to r0.
    static constexpr std::uint8_t kSink = 32;

    /// Runs instructions until the cycle count reaches `limit` (at least
    /// one), a halt or an FSL stall: the body of step() and run().
    CpuState execute(std::int64_t limit);
    /// The block entered at `pc`, translated on a miss; drops every block
    /// first when translated code was written since the last check.
    const Op* block_at(std::uint32_t pc);
    /// Translates the block entered at `pc` into the arena.
    const Op* translate(std::uint32_t pc);
    /// `insn`, fetched at `pc`, as an op; only control transfers end a block.
    [[nodiscard]] Op lower(const Instruction& insn, std::uint32_t pc) const;
    /// Drops every block and takes the memory's current code-write epoch.
    void flush();

    MemorySystem& mem_;
    CpuCosts costs_;
    std::array<std::uint32_t, 33> regs_{};  ///< r0..r31 and the r0 sink
    std::array<FslLink, kFslLinks> fsl_in_;   ///< hardware -> CPU
    std::array<FslLink, kFslLinks> fsl_out_;  ///< CPU -> hardware
    std::uint32_t pc_ = 0;
    std::int64_t cycles_ = 0;
    std::int64_t retired_ = 0;
    CpuState state_ = CpuState::Running;

    std::array<Slot, kBlockSlots> table_{};
    std::vector<Op> arena_;           ///< capacity kArenaOps, never reallocated
    std::uint64_t epoch_ = 0;         ///< mem_.code_epoch() the blocks were made at
    std::int64_t translations_ = 0;
};

}  // namespace refpga::soc
