// Reference §4.3 reallocator (a test oracle).
//
// The naive implementation of `optimize_net_power`'s semantics: per-call set
// builders for slice/net adjacency, every candidate move applied to the live
// placement, re-routed, measured and undone, and a full timing analysis after
// every committed move. It shares no bookkeeping with the library's
// incremental engine — only public `par` calls — and must produce a
// bitwise-identical ReallocateReport for the same input, which is how tests
// and `bench_par_reallocate` pin the library engine. Part of the
// test-support library `refpga::oracles`.
#pragma once

#include "refpga/par/reallocate.hpp"

namespace refpga::par {

/// Same contract and signature as optimize_net_power; `options.recorder`
/// and `options.timing_resync_period` are ignored.
[[nodiscard]] ReallocateReport optimize_net_power_reference(
    Placement& placement, RoutedDesign& routed, const sim::ActivityMap& activity,
    const ReallocateOptions& options = {});

}  // namespace refpga::par
