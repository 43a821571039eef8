// Shared plumbing for the reproduction benches: runs the physical flow
// (pack/place/route) and prints consistent headers.
#pragma once

#include <iostream>
#include <string>
#include <string_view>

#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/netlist/stats.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/router.hpp"
#include "refpga/sim/activity.hpp"

namespace refpga::benchkit {

inline void print_header(const std::string& id, const std::string& title) {
    std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// True when the binary was invoked with --smoke. CI runs the benches in
/// this mode: a scaled-down scenario that validates the bench end-to-end
/// (and its invariants) without paying full measurement time.
inline bool smoke_mode(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--smoke") return true;
    return false;
}

/// Physical implementation of a netlist on a device: pack + regioned
/// placement + annealing + routing.
struct Implementation {
    par::PackedDesign packed;
    fabric::Device device;
    par::Placement placement;
    par::RoutedDesign routed;

    Implementation(const netlist::Netlist& nl, fabric::PartName part,
                   double effort = 0.15, double activity_beta = 0.0,
                   const sim::ActivityMap* activity = nullptr)
        : packed(par::pack(nl)),
          device(part),
          placement(device, nl, packed),
          routed(placement, par::ChannelCapacity{}) {
        placement.place_initial();
        par::PlacerOptions options;
        options.effort = effort;
        options.activity_beta = activity_beta;
        (void)par::anneal(placement, options, activity);
        routed.route_all(par::RouteMode::Performance);
    }
};

}  // namespace refpga::benchkit
