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

/// Same contract and signature as optimize_net_power. It keeps no timing
/// bound to resync (the fast path re-analyses every 8 committed moves): each
/// move it makes gets a full timing analysis. `options.recorder`, when set,
/// receives one counter only: realloc.candidates_selectable_total, the
/// targets that can win (a tile's first free site in window order), which
/// the library engine either trial-routes or prunes.
[[nodiscard]] ReallocateReport optimize_net_power_reference(
    Placement& placement, RoutedDesign& routed, const sim::ActivityMap& activity,
    const ReallocateOptions& options = {});

}  // namespace refpga::par
