// Levelized event-driven simulator (the library's simulation engine).
//
// Where the reference cycle engine re-evaluates every combinational cell on
// every settle, this engine keeps per-level pending queues and only evaluates
// cells downstream of nets whose value actually changed. On realistic
// designs — where a small fraction of the fabric toggles per cycle (the
// clock-gated measurement datapath of the paper is the motivating case) —
// this is an order of magnitude cheaper while remaining bit-identical to the
// reference `Simulator` of the test-support library (see engine.hpp for the
// contract, tests/test_sim_diff.cpp for the differential harness that
// enforces it).
//
// How parity is maintained:
//  - Net state is a packed bit vector; a cell is (re)scheduled only when one
//    of its input nets flips, into the queue of its precomputed level
//    (netlist::SimGraph). Levels are drained in ascending order and every
//    consumer sits at a strictly higher level than its driver, so each dirty
//    cell evaluates at most once per settle — exactly the transitions the
//    full sweep would produce, hence identical toggle counts.
//  - Sequential cells are edge-scheduled: a FF/BRAM is "armed" when any data
//    input changes (or its BRAM contents are poked externally), evaluated on
//    the next matching clock edge, and skipped otherwise. A skipped FF
//    necessarily has D == Q (nothing changed since it last latched), and a
//    skipped BRAM's write would be idempotent, so skipping is unobservable.
//  - All sequential cells start armed so the first edge after reset latches
//    everything, like the cycle engine's first tick.
//
// LUTs, most of the evaluations, are read from flat per-cell records built
// at construction (truth table, four input net indices, output net) instead
// of through netlist::Cell and its heap vectors; an unused or unconnected
// pin reads a sentinel bit past the last net that is always 0. MULT18s, FFs
// and BRAMs read their Cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "refpga/netlist/netlist.hpp"
#include "refpga/netlist/simgraph.hpp"
#include "refpga/sim/engine.hpp"

namespace refpga::sim {

class EventSimulator : public SimEngine {
public:
    /// The netlist must pass DRC (no combinational loops). Initial state:
    /// reset-settled nets, FFs 0, BRAMs at init, toggle counters zeroed (the
    /// power-up settle is not counted — see engine.hpp).
    explicit EventSimulator(const netlist::Netlist& nl);

    [[nodiscard]] const netlist::Netlist& netlist() const override { return nl_; }

    void set_input(const std::string& port, std::uint64_t value) override;

    [[nodiscard]] std::uint64_t get_port(const std::string& port) const override;

    [[nodiscard]] bool net_value(netlist::NetId net) const override;

    void tick(netlist::NetId clock = netlist::NetId{}) override;

    [[nodiscard]] std::int64_t cycle_count() const override { return cycles_; }

    [[nodiscard]] const std::vector<netlist::NetId>& changed_nets() const override {
        return changed_;
    }

    [[nodiscard]] const std::vector<std::int64_t>& toggle_counts() const override {
        return toggles_;
    }

    [[nodiscard]] std::uint32_t bram_word(netlist::CellId bram,
                                          std::size_t addr) const override;
    void set_bram_word(netlist::CellId bram, std::size_t addr,
                       std::uint32_t value) override;

private:
    [[nodiscard]] bool bit(std::uint32_t net) const {
        return ((words_[net >> 6] >> (net & 63)) & 1) != 0;
    }
    void set_net(std::uint32_t net, bool value);
    void schedule(std::uint32_t cell);
    void eval_cell(std::uint32_t cell_index);
    void eval_mult(const netlist::Cell& c);
    void drain_levels();
    [[nodiscard]] bool in_value(const netlist::Cell& c, std::size_t pin) const;
    [[nodiscard]] std::uint64_t bus_in(const netlist::Cell& c, std::size_t first,
                                       std::size_t count) const;

    /// A combinational cell as eval_cell reads it. For a LUT: truth table,
    /// input net indices (unused pins: the sentinel net) and output net.
    struct CombRecord {
        std::uint32_t in[4];
        std::uint32_t out;
        std::uint16_t mask;
        bool lut;  ///< false: evaluate through the Cell (MULT18)
    };

    const netlist::Netlist& nl_;
    netlist::SimGraph graph_;
    std::vector<CombRecord> comb_;             ///< per cell; LUT fields for LUTs
    std::vector<std::uint64_t> words_;         ///< packed net values + the sentinel bit
    std::vector<std::vector<std::uint32_t>> level_queue_;  ///< pending comb cells
    std::vector<std::uint8_t> in_queue_;       ///< per-cell: already scheduled
    std::vector<std::uint8_t> seq_armed_;      ///< per-cell: data input changed
    std::vector<std::vector<std::uint32_t>> bram_state_;   ///< per BRAM cell contents
    std::vector<std::int64_t> toggles_;
    std::vector<netlist::NetId> changed_;
    netlist::NetId default_clock_;
    std::int64_t cycles_ = 0;

    // Per-tick scratch, members to avoid reallocation on the hot path.
    struct FfUpdate {
        std::uint32_t q_net;
        bool q;
    };
    struct BramUpdate {
        std::uint32_t cell;
        std::uint32_t read_word;
    };
    std::vector<FfUpdate> ff_scratch_;
    std::vector<BramUpdate> bram_scratch_;
};

}  // namespace refpga::sim
