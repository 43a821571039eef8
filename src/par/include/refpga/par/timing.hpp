// Static timing analysis over a routed design.
//
// Arrival times propagate through the combinational cone from sequential
// outputs / input pads to sequential inputs / output pads using routed net
// delays plus cell delays, in one forward pass over the combinational cells
// in topological order (the netlist's shared SimGraph levelization; a
// combinational loop throws). Fmax follows from the critical path. The power
// reallocator uses this to reject moves that would break the clock target
// ("Naturally the requirements on performance must be considered", §4.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "refpga/par/router.hpp"

namespace refpga::par {

struct TimingReport {
    double critical_path_ps = 0.0;
    /// Cells on the critical path, launch to capture: a launch cell (FF,
    /// BRAM, input pad or constant), combinational cells, then the endpoint
    /// (FF, BRAM or output pad). Between equal-delay paths the choice is
    /// unspecified.
    std::vector<netlist::CellId> critical_cells;

    [[nodiscard]] double fmax_mhz() const {
        return critical_path_ps > 0.0 ? 1e6 / critical_path_ps : 0.0;
    }
};

/// Cell propagation delays (Spartan-3 -4 speed grade ballpark).
struct CellDelays {
    double lut_ps = 610.0;
    double mult_ps = 4800.0;
    double ff_clk_to_q_ps = 580.0;
    double bram_clk_to_q_ps = 2100.0;
    double ff_setup_ps = 520.0;
};

/// Reads the levelization the netlist shares (Netlist::sim_graph), so a
/// caller that analyses one netlist many times (the §4.3 reallocator)
/// levelizes it once, or not at all after a simulation of it.
[[nodiscard]] TimingReport analyze_timing(const RoutedDesign& routed,
                                          const CellDelays& delays = {});

/// Per-cell mask over the netlist: true when the cell lies on `report`'s
/// critical path. The §4.3 reallocation engine analyzes timing lazily; this
/// mask is how it decides whether a moved slice can affect the critical path
/// directly and therefore warrants a full re-analysis.
[[nodiscard]] std::vector<bool> critical_cell_mask(const TimingReport& report,
                                                   std::size_t cell_count);

}  // namespace refpga::par
