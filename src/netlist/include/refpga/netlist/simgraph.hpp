// Precomputed simulation graph: fanout and level CSR for event-driven
// evaluation.
//
// The event-driven simulator (refpga::sim::EventSimulator) needs two
// net-indexed queries on its hottest path: "which combinational cells consume
// this net" (to schedule re-evaluation when the net flips) and "which
// sequential cells sample this net" (to arm flip-flops/BRAMs for the next
// clock edge). Both are answered from CSR arrays built once here, together
// with a levelization of the combinational cells (level = longest
// combinational-driver chain feeding the cell), so pending work can be
// drained strictly level-by-level — each dirty cell evaluates at most once
// per settle, which is what keeps event-driven toggle counts bit-identical
// to the full cycle engine's.
//
// A netlist owns its one graph: Netlist::sim_graph() builds it on first use
// and every reader (the simulator, par::analyze_timing, the reallocator)
// shares it, so a netlist is levelized once. Membership depends only on
// connectivity; a structural change to the netlist drops the graph, and a
// reference taken before it dangles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "refpga/netlist/netlist.hpp"

namespace refpga::netlist {

class SimGraph {
public:
    /// Combinational cells (LUT/MULT18) with `net` among their inputs,
    /// sorted, unique. Outpads are observation-only and excluded.
    [[nodiscard]] std::span<const std::uint32_t> comb_consumers(NetId net) const {
        return {comb_sinks_.data() + comb_offsets_[net.value()],
                comb_sinks_.data() + comb_offsets_[net.value() + 1]};
    }

    /// Sequential cells (FF/BRAM) sampling `net` through a data pin (D, CE,
    /// address, write-enable or write-data — not the clock), sorted, unique.
    [[nodiscard]] std::span<const std::uint32_t> seq_consumers(NetId net) const {
        return {seq_sinks_.data() + seq_offsets_[net.value()],
                seq_sinks_.data() + seq_offsets_[net.value() + 1]};
    }

    /// Evaluation level of a combinational cell: 0 when no combinational
    /// cell drives any of its inputs, otherwise 1 + max over such drivers.
    /// Meaningless (0) for sequential cells and pads.
    [[nodiscard]] std::uint32_t level_of(std::uint32_t cell_index) const {
        return levels_[cell_index];
    }

    /// Number of distinct levels (max level + 1; 0 for a netlist with no
    /// combinational cells).
    [[nodiscard]] std::uint32_t level_count() const { return level_count_; }

    /// All combinational cells in ascending level order (a valid topological
    /// evaluation order).
    [[nodiscard]] const std::vector<std::uint32_t>& comb_order() const {
        return comb_order_;
    }

    /// All sequential cells (FF + BRAM), ascending cell index.
    [[nodiscard]] const std::vector<std::uint32_t>& seq_cells() const {
        return seq_cells_;
    }

private:
    friend class Netlist;
    /// The netlist must be free of combinational loops (DRC-clean designs
    /// are); construction levelizes with Kahn's algorithm and throws a
    /// ContractViolation if a loop prevents complete levelization.
    explicit SimGraph(const Netlist& nl);

    std::vector<std::uint32_t> comb_offsets_;  ///< net_count + 1 entries
    std::vector<std::uint32_t> comb_sinks_;
    std::vector<std::uint32_t> seq_offsets_;   ///< net_count + 1 entries
    std::vector<std::uint32_t> seq_sinks_;
    std::vector<std::uint32_t> levels_;        ///< cell_count entries
    std::vector<std::uint32_t> comb_order_;
    std::vector<std::uint32_t> seq_cells_;
    std::uint32_t level_count_ = 0;
};

}  // namespace refpga::netlist
