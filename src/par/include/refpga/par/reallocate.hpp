// Power-driven logic reallocation (the paper's §4.3 methodology).
//
// For the highest-power nets (activity x routed capacitance), try to move the
// net's driver/sink slices closer to the net's centroid and re-route the
// affected nets on low-capacitance wires. A move is committed only when
//   (1) the target net's power decreases,
//   (2) total dynamic power does not increase (the paper re-verified this
//       after every reallocation), and
//   (3) the critical path stays within the allowed slack.
// The paper performed this by hand in FPGA Editor and argued it "must be
// integrated in FPGA tools"; this is that integration.
//
// The engine is incremental: slice<->net adjacency read on demand off the
// packed design and the netlist's pin and sink arrays, scratch-route delta
// costing (no occupy/undo churn on the live grid), cached per-net power with
// an O(1) maintained total (NetPowerCache), lazy timing behind a sound
// delay-increase bound with periodic full resync over the netlist's shared
// levelization (Netlist::sim_graph), and candidate pruning: a move is
// trial-routed only when the router's admissible capacitance bound
// (RoutedDesign::capacitance_lower_bound_pf) leaves it room to beat the best
// gain so far. Candidate gains are computed
// per (dy, dx, idx) window position and reduced in window order (max gain,
// lowest coordinate wins ties).
//
// Its reports are pinned bitwise to a naive reference implementation of the
// same semantics (per-call set builders, every candidate applied, measured
// and undone on the live grid, full timing analysis after every committed
// move), which lives in the test-support library.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "refpga/obs/obs.hpp"
#include "refpga/par/router.hpp"
#include "refpga/par/timing.hpp"
#include "refpga/sim/activity.hpp"

namespace refpga::par {

/// Move search radius around the net's centroid, in CLBs.
inline constexpr int kReallocRadius = 4;
/// Nets with more sinks than this are skipped: their power is dominated by
/// irreducible pin capacitance, so reallocation cannot help (the paper
/// likewise picked moderate-fanout nets such as multiplier inputs).
inline constexpr std::size_t kReallocMaxFanout = 16;

/// Options of optimize_net_power; its timing checks use the default
/// CellDelays.
struct ReallocateOptions {
    std::size_t net_count = 10;     ///< how many hot nets to optimize
    double vdd = 1.2;               ///< core voltage
    double timing_slack = 1.10;     ///< allowed critical-path growth factor
    bool capture_routes = false;    ///< record ASCII route views (Figure 6)
    /// Observability sink (refpga::obs). When set, optimize_net_power bumps
    /// realloc.{passes,nets_considered,candidates_evaluated,candidates_pruned,
    /// moves_committed,moves_rejected,timing_resyncs}_total and observes the
    /// pass wall time (candidates_evaluated counts trial-routed candidates,
    /// candidates_pruned those the capacitance bound ruled out).
    /// Reports remain byte-identical whether or not a recorder is attached.
    /// Non-owning.
    obs::Recorder* recorder = nullptr;
};

/// Per-net outcome, one entry per optimized net (Table 2 rows).
struct NetPowerChange {
    netlist::NetId net;
    std::string name;
    double before_uw = 0.0;
    double after_uw = 0.0;
    bool moved_logic = false;  ///< a slice move was committed (vs re-route only)
    std::string route_before;  ///< when capture_routes
    std::string route_after;

    [[nodiscard]] double reduction_pct() const {
        return before_uw > 0.0 ? 100.0 * (before_uw - after_uw) / before_uw : 0.0;
    }

    friend bool operator==(const NetPowerChange&, const NetPowerChange&) = default;
};

struct ReallocateReport {
    std::vector<NetPowerChange> nets;
    double total_before_uw = 0.0;  ///< all-net dynamic power before
    double total_after_uw = 0.0;
    double critical_before_ps = 0.0;
    double critical_after_ps = 0.0;

    friend bool operator==(const ReallocateReport&, const ReallocateReport&) = default;
};

/// Optimizes `routed` (and the underlying placement) in place.
[[nodiscard]] ReallocateReport optimize_net_power(Placement& placement,
                                                  RoutedDesign& routed,
                                                  const sim::ActivityMap& activity,
                                                  const ReallocateOptions& options = {});

/// Dynamic power of one routed net at the given activity, in microwatts.
[[nodiscard]] double net_power_uw(const RoutedDesign& routed, netlist::NetId net,
                                  const sim::ActivityMap& activity, double vdd);

/// Non-dedicated nets incident to the slice's cells (they must be re-routed
/// when it moves), sorted, unique.
[[nodiscard]] std::vector<netlist::NetId> slice_nets(const Placement& placement,
                                                     SliceId slice);
/// Slices holding the net's driver or sinks, sorted, unique.
[[nodiscard]] std::vector<SliceId> net_slices(const Placement& placement,
                                              netlist::NetId net);

/// Per-net dynamic power cache. refresh() recomputes one net's entry from
/// its live route and maintains a running total, so total_uw() is O(1)
/// instead of O(nets) per query; only re-routed nets are ever touched.
/// exact_total_uw() re-sums the cached entries in net order — the same
/// operation order a from-scratch total uses — so reports stay byte-
/// identical to the reference implementation's.
class NetPowerCache {
public:
    NetPowerCache(const RoutedDesign& routed, const sim::ActivityMap& activity,
                  double vdd);

    [[nodiscard]] double net_uw(netlist::NetId net) const;
    void refresh(netlist::NetId net);
    [[nodiscard]] double total_uw() const { return total_uw_; }
    [[nodiscard]] double exact_total_uw() const;

private:
    const RoutedDesign* routed_;
    const sim::ActivityMap* activity_;
    double vdd_;
    std::vector<double> net_uw_;
    double total_uw_ = 0.0;
};

}  // namespace refpga::par
