// Common interface over the simulation engines.
//
// The library simulates with `EventSimulator`, the levelized event-driven
// engine: it evaluates only cells downstream of nets that actually changed,
// and settles a tick on which much of the fabric changes with one
// level-order sweep instead (event_sim.hpp). The levelized full-sweep cycle
// engine (`Simulator`) is kept as the reference semantics in the
// test-support library (`refpga::oracles`), which only tests and parity
// benches link. Both implement this interface, through
// which `VcdWriter`, `activity_from_simulation`, `power::estimate_power` and
// the differential tests drive either engine, and they are contractually
// bit-identical: same per-net toggle counts, same final net/BRAM state,
// byte-identical VCD output for the same stimulus. `tests/test_sim_diff.cpp`
// enforces the contract across randomized netlists; anything observable where
// the engines may differ (only the ORDER of `changed_nets()`) is called out
// explicitly below.
//
// Toggle-count specification (both engines):
//  - Construction establishes the reset steady state (constants propagated,
//    combinational logic settled, FFs at 0, BRAMs at their init contents) and
//    then zeroes all counters: `toggle_counts()` never includes the power-up
//    transition.
//  - Nets driven by constants (Gnd/Vcc) therefore always report 0 toggles,
//    as do undriven nets — neither can change after reset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "refpga/netlist/netlist.hpp"

namespace refpga::sim {

class SimEngine {
public:
    virtual ~SimEngine() = default;

    [[nodiscard]] virtual const netlist::Netlist& netlist() const = 0;

    // --- stimulus / observation ----------------------------------------------

    /// Drives an input port with `value` (bit i of value -> bit i of the
    /// port), then settles combinational logic.
    virtual void set_input(const std::string& port, std::uint64_t value) = 0;

    /// Reads a port (input or output) as an unsigned integer.
    [[nodiscard]] virtual std::uint64_t get_port(const std::string& port) const = 0;

    [[nodiscard]] virtual bool net_value(netlist::NetId net) const = 0;

    // --- time ----------------------------------------------------------------

    /// One rising edge of `clock`: latch sequential state, then settle
    /// combinational logic. Default: the netlist's single clock.
    virtual void tick(netlist::NetId clock = netlist::NetId{}) = 0;

    /// Convenience: n ticks of the default clock.
    void run(int cycles) {
        for (int i = 0; i < cycles; ++i) tick();
    }

    [[nodiscard]] virtual std::int64_t cycle_count() const = 0;

    /// Nets whose value changed during the most recent settle/tick. The SET
    /// of nets is engine-independent; the ORDER is not specified and differs
    /// between engines (cycle: evaluation order; event: discovery order).
    [[nodiscard]] virtual const std::vector<netlist::NetId>& changed_nets() const = 0;

    /// Total value toggles per net since construction (see the toggle-count
    /// specification above). Bit-identical between engines.
    [[nodiscard]] virtual const std::vector<std::int64_t>& toggle_counts() const = 0;

    // --- BRAM word access (test/debug and software-memory modelling) ---------

    [[nodiscard]] virtual std::uint32_t bram_word(netlist::CellId bram,
                                                  std::size_t addr) const = 0;
    virtual void set_bram_word(netlist::CellId bram, std::size_t addr,
                               std::uint32_t value) = 0;
};

}  // namespace refpga::sim
