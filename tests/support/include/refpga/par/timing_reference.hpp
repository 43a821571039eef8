// Reference static timing analysis (a test oracle).
//
// The worklist implementation of `analyze_timing`'s semantics: launch cells
// seed a LIFO worklist and every improved arrival time is pushed again until
// nothing changes. It never needs a topological order, which makes it the
// obviously-correct anchor for the library's levelized one-pass analysis —
// but on deep carry/borrow chains it re-relaxes the same cells many times.
// Tests and `bench_par_reallocate` pin the library's `critical_path_ps` to
// this oracle's bitwise. Part of the test-support library `refpga::oracles`.
#pragma once

#include "refpga/par/timing.hpp"

namespace refpga::par {

/// Same contract and signature as analyze_timing. Between equal-delay paths
/// the reported `critical_cells` may differ from the library's.
[[nodiscard]] TimingReport analyze_timing_reference(const RoutedDesign& routed,
                                                    const CellDelays& delays = {});

}  // namespace refpga::par
