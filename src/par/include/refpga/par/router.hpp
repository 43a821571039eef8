// Routing over the wire-type channel model.
//
// Each driver->sink connection is decomposed into interconnect segments
// (direct/double/hex/long) along an L-shaped path. The cost mode picks the
// trade-off: Performance reaches far per hop (long/hex lines, fewer switch
// delays, more capacitance); LowPower composes short segments (more hops,
// less switched capacitance). Channel occupancy per tile and wire type is
// tracked so congestion forces fallbacks, and §4.3-style re-routing of a
// single net is supported.
//
// Candidate moves are costed through RouteScratch: segments chosen during a
// trial route occupy a side buffer layered over the live usage grid, so
// evaluating a move never touches (and never has to undo) the live channel
// state. The live routing path funnels through the same code — it
// routes into a scratch and then commits the deltas — which keeps trial and
// committed routes byte-identical by construction.
//
// Routes are stored flat: every connection in one arena and every segment
// in another, with one range per net and one per connection. A re-route
// appends to the arenas, and route_all starts them fresh. A NetRoute and the
// spans it hands out are views into the arenas: any re-route, rip-up or
// route_all may grow or clear them, and so invalidates every view taken
// before it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "refpga/fabric/wire.hpp"
#include "refpga/par/placement.hpp"

namespace refpga::par {

enum class RouteMode { Performance, LowPower };

struct RouteSegment {
    fabric::WireType type;
    int x = 0;            ///< start tile
    int y = 0;
    bool horizontal = true;
    int step = 1;         ///< +1 or -1 direction along the axis
};

/// Route of one driver->sink connection; its segments are
/// RoutedDesign::segments(*this).
struct SinkRoute {
    netlist::PinRef sink;
    std::uint32_t first_segment = 0;  ///< in the design's segment arena
    std::uint32_t segment_count = 0;
    double capacitance_pf = 0.0;
    double delay_ps = 0.0;
};

/// One net's route, a view into the design's connection arena.
struct NetRoute {
    bool routed = false;
    std::span<const SinkRoute> sinks;  ///< in the net's sink order

    [[nodiscard]] double capacitance_pf() const {
        double c = 0.0;
        for (const auto& s : sinks) c += s.capacitance_pf;
        return c;
    }
};

/// Per-tile, per-wire-type channel capacities (both axes pooled).
struct ChannelCapacity {
    int direct = 8;
    int double_ = 8;
    int hex = 4;
    int long_ = 1;

    /// Capacity for a wire type; throws ContractViolation on an out-of-enum
    /// value (a silent 0 here would masquerade as full channels and bury
    /// congestion bugs).
    [[nodiscard]] int of(fabric::WireType t) const;
};

/// Occupancy side-buffer for trial routing: deltas on top of the live usage
/// grid. Reusable across trials via clear().
class RouteScratch {
public:
    RouteScratch() = default;

    /// Resets all deltas (O(touched), not O(grid)).
    void clear() {
        for (const std::size_t idx : touched_) delta_[idx] = 0;
        touched_.clear();
    }

private:
    friend class RoutedDesign;

    void ensure_size(std::size_t n) {
        if (delta_.size() != n) {
            delta_.assign(n, 0);
            touched_.clear();
        }
    }

    std::vector<int> delta_;            ///< same layout as the live usage grid
    std::vector<std::size_t> touched_;  ///< indices with nonzero delta
};

class RoutedDesign {
public:
    RoutedDesign(const Placement& placement, ChannelCapacity capacity);

    [[nodiscard]] const Placement& placement() const { return *placement_; }
    [[nodiscard]] NetRoute route(netlist::NetId net) const;
    [[nodiscard]] std::span<const RouteSegment> segments(const SinkRoute& sink) const {
        return {segments_.data() + sink.first_segment, sink.segment_count};
    }
    [[nodiscard]] double total_capacitance_pf() const;
    /// Live channel overflow: the wires in use beyond capacity, summed over
    /// every tile and wire type (sum of max(0, usage - capacity)). A
    /// connection whose channels are all full takes a span-1 Direct anyway
    /// (see route_axis), which adds exactly one; ripping a net up or
    /// re-routing it takes its overflow back.
    [[nodiscard]] long overflow_count() const;

    /// Routes every non-dedicated net. Previously routed nets are ripped up.
    void route_all(RouteMode mode);

    /// Rips up and re-routes one net (used by the power reallocator after
    /// moving its logic).
    void reroute_net(netlist::NetId net, RouteMode mode);

    /// Rips up one net's live route, releasing its channels. The §4.3 engine
    /// unroutes every net affected by a candidate slice move first, so all
    /// candidates are costed against the same base occupancy.
    void unroute_net(netlist::NetId net);

    /// Trial evaluation: capacitance of `net` routed in `mode` as if slice
    /// `moved` sat at `moved_pos`, costed against the live usage grid plus
    /// `scratch`'s accumulated deltas. Chosen segments occupy `scratch`, not
    /// the live grid, so consecutive trial routes within one candidate see
    /// each other exactly as a live sequential re-route would.
    [[nodiscard]] double trial_route_capacitance_pf(netlist::NetId net, SliceId moved,
                                                    const fabric::SliceCoord& moved_pos,
                                                    RouteMode mode,
                                                    RouteScratch& scratch) const;

    /// Pin connection delay added on top of segment delays, per connection.
    static constexpr double kPinDelayPs = 120.0;
    /// Driver output + sink input pin capacitance per connection (pF).
    static constexpr double kPinCapacitancePf = 0.35;

    /// Admissible lower bound on the capacitance this router charges for
    /// `connections` driver->sink connections whose endpoints lie
    /// `manhattan_tiles` apart in total, in either mode and at any channel
    /// occupancy: kPinCapacitancePf per connection plus the smallest
    /// capacitance_pf / span of fabric::wire_params per tile. It holds
    /// because route_axis never takes a wire longer than the distance left on
    /// its axis and its overflow fallback is a span-1 Direct, so a
    /// connection's segment spans sum exactly to its Manhattan length. The
    /// result is scaled down by 1e-9 relative, far above the rounding of the
    /// router's own left-to-right sums, so it stays at or below every
    /// computed route capacitance, not only the exact one. (A tree router
    /// that shares wire between sinks would bound a net by its HPWL.)
    [[nodiscard]] static double capacitance_lower_bound_pf(std::size_t connections,
                                                           long manhattan_tiles);

private:
    /// A net's range in the connection arena.
    struct NetRange {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
        bool routed = false;
    };

    void rip_up(netlist::NetId net);
    /// Routes `net` live: appends its connections to the arenas through
    /// live_scratch_, then commits the scratch to the usage grid.
    void route_net(netlist::NetId net, RouteMode mode);
    /// Segment decisions of one connection, L-shaped (horizontal leg first):
    /// every chosen segment occupies `scratch` and is handed to `emit`, which
    /// stores it (live routing) or only costs it (trial routing, which so
    /// allocates nothing). Both therefore take the same segments.
    template <typename EmitSegment>
    void route_connection(const fabric::SliceCoord& from, const fabric::SliceCoord& to,
                          RouteMode mode, RouteScratch& scratch, EmitSegment&& emit) const {
        route_axis(from.y, from.x, to.x, true, mode, scratch, emit);
        route_axis(to.x, from.y, to.y, false, mode, scratch, emit);
    }
    /// Segment decisions for one axis leg.
    template <typename EmitSegment>
    void route_axis(int fixed, int begin, int end, bool horizontal, RouteMode mode,
                    RouteScratch& scratch, EmitSegment&& emit) const;
    /// Calls fn(usage index) for each of the segment's tiles on the die, in
    /// order, until fn returns false (then returns false).
    template <typename Fn>
    bool each_tile(const RouteSegment& seg, Fn&& fn) const;
    [[nodiscard]] bool segment_fits(const RouteSegment& seg,
                                    const RouteScratch& scratch) const;
    void occupy_scratch(const RouteSegment& seg, RouteScratch& scratch) const;
    /// Applies a scratch's deltas to the live grid, then clears it.
    void commit_scratch(RouteScratch& scratch);
    /// Takes one use of the segment's tiles back from the live grid.
    void release(const RouteSegment& seg);
    [[nodiscard]] fabric::SliceCoord pos_of(netlist::CellId cell, SliceId moved,
                                            const fabric::SliceCoord& moved_pos) const;

    const Placement* placement_;
    ChannelCapacity capacity_;
    std::vector<NetRange> routes_;      ///< indexed by net id
    std::vector<SinkRoute> sinks_;      ///< every connection, a range per net
    std::vector<RouteSegment> segments_;  ///< every segment, a range per connection
    std::vector<int> usage_;            ///< [y][x][type]
    RouteScratch live_scratch_;         ///< staging buffer for live routing
};

/// ASCII rendering of one net's route on the device grid (Figure 6 views).
[[nodiscard]] std::string render_route(const RoutedDesign& design, netlist::NetId net);

/// Dynamic power of a switched capacitance: P = 1/2 * C * Vdd^2 * f_toggle,
/// in microwatts (C in pF, f in transitions per second).
[[nodiscard]] inline double switch_power_uw(double c_pf, double toggle_hz, double vdd) {
    return 0.5 * c_pf * 1e-12 * vdd * vdd * toggle_hz * 1e6;
}

}  // namespace refpga::par
