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
// branch over exactly one ALU op stays inside its block, and that op runs
// either way, writing a sink register when the branch is taken. Each op
// jumps straight to the next op's handler (labels-as-values), and a block
// end with a static successor (fall-through, either edge of a conditional
// branch, br, brl) links to the successor block the first time it is
// followed; jr is looked up every time. The memory system watches every
// translated word and bumps a code-write epoch on any write into one; the
// CPU drops all its blocks and their links when the epoch has moved,
// checking at every table lookup and after every store. So pokes and
// self-modifying stores behave exactly as with a decode per step, which the
// per-step reference interpreter (tests/support, `CpuReference`) pins bit
// for bit.
//
// One loop shape runs as a single op: the shift-add multiply of a core
// without MULT18 (andi t, b, 1; beq t, r0 over add acc, acc, a; slli a, a,
// 1; srli b, b, 1; bne b, r0 back to its own entry). When the cycles left
// exceed the whole loop's, its first op adds a * b to acc in closed form and
// charges and retires what the loop would; otherwise it runs the ops one
// by one, so a limit inside the loop stops where the reference stops.
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
    /// Longest block in instructions; a longer straight-line run continues
    /// in the next one.
    static constexpr int kMaxBlockOps = 64;

    Cpu(MemorySystem& memory, CpuCosts costs = {});

    void reset(std::uint32_t pc = 0);

    [[nodiscard]] CpuState state() const { return state_; }
    [[nodiscard]] std::uint32_t pc() const { return pc_; }
    [[nodiscard]] std::int64_t cycles() const { return cycles_; }
    [[nodiscard]] std::int64_t retired() const { return retired_; }

    /// Blocks translated since construction (reset() keeps the blocks).
    [[nodiscard]] std::int64_t translations() const { return translations_; }
    /// Shift-add loops run as one op since construction.
    [[nodiscard]] std::int64_t fused_loops() const { return fused_loops_; }
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
    static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

    /// ALU ops, Add..Lui: the ops a skip-one branch may step over.
    static constexpr int kAluOps = static_cast<int>(Opcode::Lui) + 1;
    /// Handlers of the skip-one branches, Beq..Bgeu from here.
    static constexpr int kSkipOne = kOpcodeCount + kAluOps;
    /// Handler of the op that ends a straight-line run cut short (at
    /// kMaxBlockOps or before a word that cannot be fetched): it retires
    /// nothing and follows its link to the next word's block.
    static constexpr std::uint8_t kFallThrough =
        kSkipOne + static_cast<int>(Opcode::Bgeu) - static_cast<int>(Opcode::Beq) + 1;
    /// Handler of the first op of a shift-add multiply loop: the whole loop
    /// in closed form when the cycles left exceed its cost, else its andi.
    static constexpr std::uint8_t kShiftAddLoop = kFallThrough + 1;

    /// One pre-decoded instruction of a block.
    struct Op {
        /// Its handler in execute(): the opcode; kOpcodeCount + opcode for
        /// the ALU op of a skip-one branch, which runs either way and,
        /// when the branch was taken, writes the sink and retires nothing;
        /// kSkipOne + (opcode - Beq) for the skip-one branch itself, whose
        /// block goes on; kFallThrough; or kShiftAddLoop.
        std::uint8_t handler = 0;
        std::uint8_t rd = 0;  ///< written register; kSink stands in for r0
        std::uint8_t ra = 0;
        std::uint8_t rb = 0;  ///< rb, sw's data register or a branch's second operand
        std::uint32_t imm = 0;     ///< immediate as used: sign-extended, masked or shifted
        std::uint32_t target = 0;  ///< absolute branch target
        std::int32_t cost = 0;        ///< static cycles (not taken, for a branch)
        std::int32_t taken_cost = 0;  ///< static cycles of a taken branch
        std::uint32_t pc = 0;  ///< its address; kFallThrough's is the next word's
        /// At a block end, the arena index of the successor block's first
        /// op, kNoBlock until the edge is first followed: [0] falling
        /// through (kFallThrough) or not taken, [1] taken (br and brl too).
        /// jr never links.
        std::array<std::uint32_t, 2> link{kNoBlock, kNoBlock};
    };
    /// A block-table slot: the entry pc and the block's first op in arena_.
    struct Slot {
        std::uint32_t pc = 0;
        std::uint32_t first = kNoBlock;
    };
    /// Register slot that receives writes to r0 and those of a skipped op.
    static constexpr std::uint8_t kSink = 32;

    /// Runs instructions until the cycle count reaches `limit` (at least
    /// one), a halt or an FSL stall: the body of step() and run().
    CpuState execute(std::int64_t limit);
    /// The block entered at `pc`, translated on a miss; drops every block
    /// first when translated code was written since the last check.
    const Op* block_at(std::uint32_t pc);
    /// The block entered at `pc`, the successor along `edge` of the block
    /// that ends with arena_[from]; links it there unless the lookup
    /// flushed the arena (arena_[from] is gone) or the block is not kept.
    const Op* link(std::uint32_t from, int edge, std::uint32_t pc);
    /// Translates the block entered at `pc` into the arena.
    const Op* translate(std::uint32_t pc);
    /// True when the `count` ops at `ops` are a shift-add multiply loop
    /// whose bne returns to `ops`, with four distinct registers other than
    /// r0 and no op of negative cost.
    [[nodiscard]] static bool is_shift_add_loop(const Op* ops, std::size_t count);
    /// `insn`, fetched at `pc`, as an op run by its opcode's handler.
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
    std::uint64_t flushes_ = 0;       ///< arena flushes so far
    std::int64_t translations_ = 0;
    std::int64_t fused_loops_ = 0;
};

}  // namespace refpga::soc
