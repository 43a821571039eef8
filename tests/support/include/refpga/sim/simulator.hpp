// Levelized two-value cycle simulator (the reference engine, a test oracle).
//
// Combinational cells are evaluated in topological order after every input
// change or clock tick; sequential cells (FF, BRAM) latch on tick(). Simple
// and obviously correct, it defines the semantics the library's event-driven
// engine (EventSimulator) must reproduce bit-for-bit — see engine.hpp for
// the contract. Part of the test-support library `refpga::oracles`: tests and
// parity benches link it, library code and examples do not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "refpga/netlist/netlist.hpp"
#include "refpga/sim/engine.hpp"

namespace refpga::sim {

class Simulator : public SimEngine {
public:
    /// The netlist must pass DRC (no combinational loops). Initial state:
    /// all nets settled from reset, all FFs 0, BRAMs hold their init
    /// contents; toggle counters start at zero (the power-up settle is not
    /// counted — see engine.hpp).
    explicit Simulator(const netlist::Netlist& nl);

    [[nodiscard]] const netlist::Netlist& netlist() const override { return nl_; }

    // --- stimulus / observation ----------------------------------------------

    void set_input(const std::string& port, std::uint64_t value) override;

    [[nodiscard]] std::uint64_t get_port(const std::string& port) const override;

    [[nodiscard]] bool net_value(netlist::NetId net) const override;

    // --- time ----------------------------------------------------------------

    void tick(netlist::NetId clock = netlist::NetId{}) override;

    /// Re-evaluates combinational logic (called automatically by
    /// set_input/tick; exposed for tests).
    void settle();

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
    void levelize();
    void eval_cell(std::uint32_t cell_index);
    void set_net(netlist::NetId net, bool value);
    [[nodiscard]] bool in_value(netlist::CellId cell, std::size_t pin) const;
    [[nodiscard]] std::uint64_t bus_in(netlist::CellId cell, std::size_t first,
                                       std::size_t count) const;

    const netlist::Netlist& nl_;
    std::vector<std::uint8_t> values_;           ///< current net values
    std::vector<std::uint32_t> comb_order_;      ///< combinational cells, topo order
    std::vector<std::uint32_t> seq_cells_;       ///< FF + BRAM cell indices
    std::vector<std::vector<std::uint32_t>> bram_state_;  ///< per BRAM cell contents
    std::vector<std::int64_t> toggles_;
    std::vector<netlist::NetId> changed_;
    netlist::NetId default_clock_;
    std::int64_t cycles_ = 0;
};

}  // namespace refpga::sim
