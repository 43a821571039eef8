// Reference simulated-annealing placer (a test oracle).
//
// The direct implementation of `anneal`'s semantics: each move sums the
// weighted HPWL of every net on both swapped slices, walking all of their
// pins, once before and once after the swap. It keeps no per-net state, so
// it is the obviously-correct anchor for the library's incremental
// bounding-box annealer: for the same placement, options and activity both
// draw the same random numbers, make the same accept decisions and return
// the same PlacerResult and slice positions. Part of the test-support
// library `refpga::oracles`.
#pragma once

#include "refpga/par/placer.hpp"

namespace refpga::par {

/// Same contract and signature as anneal.
PlacerResult anneal_reference(Placement& placement, const PlacerOptions& options,
                              const sim::ActivityMap* activity = nullptr);

}  // namespace refpga::par
