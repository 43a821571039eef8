// Simulated-annealing placement optimizer.
//
// Cost is per-net half-perimeter wirelength, optionally weighted by switching
// activity (the paper's §4.3 observation: "the logic of the nets with higher
// communication rates can be placed closer ... to decrease the distance for
// the signal routing"). activity_beta = 0 reproduces a conventional
// wirelength-driven flow; activity_beta > 0 biases high-toggle nets shorter.
//
// A move swaps a slice with the content of a random site in its region. Its
// cost change is evaluated incrementally: every net keeps its bounding box,
// the pin count on each edge and its weighted HPWL, so a move touches only
// the nets of the two swapped slices and usually updates each in O(1).
#pragma once

#include "refpga/par/placement.hpp"
#include "refpga/sim/activity.hpp"

namespace refpga::par {

struct PlacerOptions {
    std::uint64_t seed = 1;
    /// Moves per temperature step scale with design size; this multiplies it.
    double effort = 1.0;
    /// Weight of activity in net cost: w = 1 + beta * rate/max_rate.
    double activity_beta = 0.0;
};

struct PlacerResult {
    long initial_cost = 0;
    long final_cost = 0;
    long moves_tried = 0;
    long moves_accepted = 0;

    friend bool operator==(const PlacerResult&, const PlacerResult&) = default;
};

/// Anneals `placement` in place. `activity` may be null (pure wirelength).
PlacerResult anneal(Placement& placement, const PlacerOptions& options,
                    const sim::ActivityMap* activity = nullptr);

}  // namespace refpga::par
