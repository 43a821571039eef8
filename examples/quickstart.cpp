// Quickstart: build a small design, simulate it, place & route it on a
// Spartan-3 part, and get a power report — the library's core loop in under
// a hundred lines.
//
//   cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "refpga/netlist/builder.hpp"
#include "refpga/netlist/drc.hpp"
#include "refpga/par/implementation.hpp"
#include "refpga/par/timing.hpp"
#include "refpga/power/estimator.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/event_sim.hpp"

int main(int argc, char** /*argv*/) {
    using namespace refpga;

    if (argc > 1) {
        std::cerr << "usage: quickstart\n";
        return 2;
    }

    // 1. Describe hardware with the word-level builder: an 8-bit counter
    //    whose value is squared by a MULT18 block.
    netlist::Netlist nl;
    const auto clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    const netlist::Bus count = b.counter(8, netlist::NetId{}, "count");
    const netlist::Bus squared = b.mul_mult18(count, count, 16, 0, "square");
    nl.add_output_port("squared", b.reg(squared, netlist::NetId{}, "out"));
    netlist::require_clean(nl);
    std::cout << "netlist: " << nl.cell_count() << " cells, " << nl.net_count()
              << " nets\n";

    // 2. Simulate a few cycles and check the arithmetic.
    sim::EventSimulator simulator(nl);
    simulator.run(12);
    std::cout << "after 12 cycles: count^2 = " << simulator.get_port("squared")
              << " (expect 11^2 + pipeline = 121)\n";

    // 3. Pack, place (simulated annealing) and route on an XC3S200.
    const par::Implementation impl(nl, fabric::PartName::XC3S200, {.effort = 0.5});
    std::cout << "placement cost: " << impl.anneal_result.initial_cost << " -> "
              << impl.anneal_result.final_cost << " (HPWL)\n";

    const par::TimingReport timing = par::analyze_timing(impl.routed);
    std::cout << "routed: " << impl.routed.total_capacitance_pf() << " pF total, Fmax "
              << timing.fmax_mhz() << " MHz\n";

    // 4. Activity-based power estimate at 50 MHz from the simulation's
    //    toggle counters.
    const power::PowerReport report = power::estimate_power(impl.routed, simulator, 50e6);
    std::cout << report.render();
    return 0;
}
