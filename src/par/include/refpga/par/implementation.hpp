// Physical implementation of a netlist on a part: pack, scan-order initial
// placement, annealing and Performance-mode routing over the default
// channel capacities, in that order.
#pragma once

#include "refpga/fabric/device.hpp"
#include "refpga/netlist/netlist.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/router.hpp"
#include "refpga/sim/activity.hpp"

namespace refpga::par {

/// Owns every object of the chain. Each one points at the one before it, so
/// an Implementation neither copies nor moves; the netlist must outlive it.
struct Implementation {
    PackedDesign packed;
    fabric::Device device;
    Placement placement;
    RoutedDesign routed;
    PlacerResult anneal_result;

    /// `activity` (may be null) weights the annealer's net costs by
    /// `options.activity_beta`.
    Implementation(const netlist::Netlist& nl, fabric::PartName part,
                   const PlacerOptions& options, const sim::ActivityMap* activity = nullptr);
    Implementation(const Implementation&) = delete;
    Implementation& operator=(const Implementation&) = delete;
};

}  // namespace refpga::par
