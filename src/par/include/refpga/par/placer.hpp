// Simulated-annealing placement optimizer.
//
// Cost is per-net half-perimeter wirelength, optionally weighted by switching
// activity (the paper's §4.3 observation: "the logic of the nets with higher
// communication rates can be placed closer ... to decrease the distance for
// the signal routing"). activity_beta = 0 reproduces a conventional
// wirelength-driven flow; activity_beta > 0 biases high-toggle nets shorter.
//
// A move swaps a slice with the content of a random site in its region.
// Every net keeps its bounding box, the pin count on each edge and its
// weighted HPWL, so a move touches only the nets of the two swapped slices.
// It is costed first by a read-only bound pass over their cached boxes: a
// lower bound on each net's new HPWL (exact unless the move empties an
// edge) gives a lower bound on the cost change, and most moves are rejected
// on it alone, with no swap and no rescan. A move the bound cannot reject
// is swapped and every affected net rescanned. The random draws and every
// accept decision equal those of costing each move exactly.
#pragma once

#include "refpga/obs/obs.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/sim/activity.hpp"

namespace refpga::par {

struct PlacerOptions {
    std::uint64_t seed = 1;
    /// Moves per temperature step scale with design size; this multiplies it.
    double effort = 1.0;
    /// Weight of activity in net cost: w = 1 + beta * rate/max_rate.
    double activity_beta = 0.0;
    /// Observability sink (refpga::obs). When set, anneal adds, once per
    /// call, anneal.{moves_tried,moves_evaluated,moves_bound_rejected,
    /// moves_accepted,temperature_steps}_total (moves_evaluated counts the
    /// moves that were costed, i.e. not skipped as same-site or
    /// cross-partition; moves_bound_rejected those the bound pass rejected
    /// without a rescan). The placement is identical whether or not a
    /// recorder is attached. Non-owning.
    obs::Recorder* recorder = nullptr;
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
