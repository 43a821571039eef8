#include "refpga/par/router.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "refpga/common/contracts.hpp"

namespace refpga::par {

using fabric::SliceCoord;
using fabric::WireType;
using fabric::wire_params;
using netlist::NetId;
using netlist::PinRef;

int ChannelCapacity::of(WireType t) const {
    switch (t) {
        case WireType::Direct: return direct;
        case WireType::Double: return double_;
        case WireType::Hex: return hex;
        case WireType::Long: return long_;
    }
    // A silent 0 would read as "channel full" and surface as phantom
    // congestion; fail loudly instead.
    detail::contract_fail("precondition", "WireType within enum", __FILE__, __LINE__);
}

RoutedDesign::RoutedDesign(const Placement& placement, ChannelCapacity capacity)
    : placement_(&placement), capacity_(capacity) {
    routes_.resize(placement.nl().net_count());
    usage_.assign(static_cast<std::size_t>(placement.device().rows()) *
                      placement.device().cols() * fabric::kWireTypeCount,
                  0);
}

double RoutedDesign::capacitance_lower_bound_pf(std::size_t connections,
                                                long manhattan_tiles) {
    static const double per_tile_pf = [] {
        double least = std::numeric_limits<double>::infinity();
        for (const WireType t : fabric::all_wire_types())
            least = std::min(least, wire_params(t).capacitance_pf / wire_params(t).span);
        return least;
    }();
    return (static_cast<double>(connections) * kPinCapacitancePf +
            per_tile_pf * static_cast<double>(manhattan_tiles)) *
           (1.0 - 1e-9);
}

NetRoute RoutedDesign::route(NetId net) const {
    REFPGA_EXPECTS(net.value() < routes_.size());
    const NetRange& r = routes_[net.value()];
    return {r.routed, {sinks_.data() + r.first, r.count}};
}

double RoutedDesign::total_capacitance_pf() const {
    double c = 0.0;
    for (std::uint32_t i = 0; i < routes_.size(); ++i) c += route(NetId{i}).capacitance_pf();
    return c;
}

long RoutedDesign::overflow_count() const {
    long excess = 0;
    for (std::size_t i = 0; i < usage_.size(); ++i) {
        const int cap =
            capacity_.of(static_cast<WireType>(i % fabric::kWireTypeCount));
        excess += std::max(0, usage_[i] - cap);
    }
    return excess;
}

template <typename Fn>
bool RoutedDesign::each_tile(const RouteSegment& seg, Fn&& fn) const {
    const int cols = placement_->device().cols();
    const int rows = placement_->device().rows();
    const int span = wire_params(seg.type).span;
    int x = seg.x;
    int y = seg.y;
    for (int i = 0; i < span; ++i) {
        if (x < 0 || x >= cols || y < 0 || y >= rows) break;  // clipped at the die edge
        if (!fn((static_cast<std::size_t>(y) * cols + x) * fabric::kWireTypeCount +
                static_cast<std::size_t>(seg.type)))
            return false;
        (seg.horizontal ? x : y) += seg.step;
    }
    return true;
}

bool RoutedDesign::segment_fits(const RouteSegment& seg,
                                const RouteScratch& scratch) const {
    const int cap = capacity_.of(seg.type);
    return each_tile(seg, [&](std::size_t idx) {
        return usage_[idx] + scratch.delta_[idx] < cap;
    });
}

void RoutedDesign::occupy_scratch(const RouteSegment& seg, RouteScratch& scratch) const {
    each_tile(seg, [&](std::size_t idx) {
        if (scratch.delta_[idx]++ == 0) scratch.touched_.push_back(idx);
        return true;
    });
}

void RoutedDesign::commit_scratch(RouteScratch& scratch) {
    for (const std::size_t idx : scratch.touched_) usage_[idx] += scratch.delta_[idx];
    scratch.clear();
}

void RoutedDesign::release(const RouteSegment& seg) {
    each_tile(seg, [&](std::size_t idx) {
        --usage_[idx];
        return true;
    });
}

template <typename EmitSegment>
void RoutedDesign::route_axis(int fixed, int begin, int end, bool horizontal,
                              RouteMode mode, RouteScratch& scratch,
                              EmitSegment&& emit) const {
    int pos = begin;
    const int step = end >= begin ? 1 : -1;
    int remaining = std::abs(end - begin);

    // Candidate order by mode: Performance reaches far first; LowPower sticks
    // to the lowest capacitance-per-tile wires.
    const std::array<WireType, 4> preference =
        mode == RouteMode::Performance
            ? std::array<WireType, 4>{WireType::Long, WireType::Hex,
                                      WireType::Double, WireType::Direct}
            : std::array<WireType, 4>{WireType::Direct, WireType::Double,
                                      WireType::Hex, WireType::Long};

    while (remaining > 0) {
        RouteSegment chosen;
        bool found = false;
        for (const WireType t : preference) {
            const int span = wire_params(t).span;
            if (span > remaining) continue;
            RouteSegment seg{t, horizontal ? pos : fixed, horizontal ? fixed : pos,
                             horizontal, step};
            if (!segment_fits(seg, scratch)) continue;
            chosen = seg;
            found = true;
            break;
        }
        if (!found) {
            // All fitting channels are full: take the mode's smallest wire
            // anyway, one past its capacity (Pathfinder would negotiate;
            // overflow_count() reports the excess, which keeps the model
            // honest about congestion).
            const WireType t = WireType::Direct;
            chosen = RouteSegment{t, horizontal ? pos : fixed,
                                  horizontal ? fixed : pos, horizontal, step};
        }
        occupy_scratch(chosen, scratch);
        emit(chosen);
        const int advanced = std::min(wire_params(chosen.type).span, remaining);
        pos += advanced * step;
        remaining -= advanced;
    }
}

SliceCoord RoutedDesign::pos_of(netlist::CellId cell, SliceId moved,
                                const SliceCoord& moved_pos) const {
    const SliceId s = placement_->design().slice_of(cell);
    return s.valid() && s == moved ? moved_pos : placement_->cell_pos(cell);
}

double RoutedDesign::trial_route_capacitance_pf(NetId net, SliceId moved,
                                                const SliceCoord& moved_pos,
                                                RouteMode mode,
                                                RouteScratch& scratch) const {
    REFPGA_EXPECTS(net.value() < routes_.size());
    scratch.ensure_size(usage_.size());
    const auto& nl = placement_->nl();
    const auto& n = nl.net(net);
    if (placement_->dedicated_net(net) || !n.driven()) return 0.0;
    const SliceCoord from = pos_of(n.driver.cell, moved, moved_pos);
    double capacitance_pf = 0.0;
    for (const PinRef& sink : nl.sinks(net)) {
        double connection_pf = kPinCapacitancePf;
        route_connection(from, pos_of(sink.cell, moved, moved_pos), mode, scratch,
                         [&](const RouteSegment& seg) {
                             connection_pf += wire_params(seg.type).capacitance_pf;
                         });
        capacitance_pf += connection_pf;
    }
    return capacitance_pf;
}

void RoutedDesign::rip_up(NetId net) {
    for (const SinkRoute& sink : route(net).sinks)
        for (const auto& seg : segments(sink)) release(seg);
    routes_[net.value()] = NetRange{};
}

void RoutedDesign::route_net(NetId net, RouteMode mode) {
    live_scratch_.ensure_size(usage_.size());
    live_scratch_.clear();
    NetRange& r = routes_[net.value()];
    r.first = static_cast<std::uint32_t>(sinks_.size());
    r.routed = true;
    const auto& nl = placement_->nl();
    const auto& n = nl.net(net);
    if (!placement_->dedicated_net(net) && n.driven()) {
        const SliceCoord from = placement_->cell_pos(n.driver.cell);
        for (const PinRef& sink : nl.sinks(net)) {
            SinkRoute route{sink, static_cast<std::uint32_t>(segments_.size()), 0,
                            kPinCapacitancePf, kPinDelayPs};
            route_connection(from, placement_->cell_pos(sink.cell), mode, live_scratch_,
                             [&](const RouteSegment& seg) {
                                 const auto& wire = wire_params(seg.type);
                                 segments_.push_back(seg);
                                 route.capacitance_pf += wire.capacitance_pf;
                                 route.delay_ps += wire.delay_ps;
                             });
            route.segment_count =
                static_cast<std::uint32_t>(segments_.size()) - route.first_segment;
            sinks_.push_back(route);
        }
    }
    r.count = static_cast<std::uint32_t>(sinks_.size()) - r.first;
    commit_scratch(live_scratch_);
}

void RoutedDesign::route_all(RouteMode mode) {
    // Every wire in use belongs to a route, so starting the arenas fresh
    // releases every channel too.
    std::fill(routes_.begin(), routes_.end(), NetRange{});
    std::fill(usage_.begin(), usage_.end(), 0);
    sinks_.clear();
    segments_.clear();
    // Route short nets first so they keep the cheap wires; long nets can
    // better amortize hex/long segments.
    std::vector<std::uint32_t> order(routes_.size());
    std::vector<int> hpwl(routes_.size());
    // Every segment advances at least one tile, so a connection takes at
    // most its Manhattan length in segments: reserving that much means the
    // arenas never move while routing. Pages no segment reaches are never
    // touched.
    const auto& nl = placement_->nl();
    std::size_t connections = 0;
    std::size_t tiles = 0;
    for (std::uint32_t i = 0; i < routes_.size(); ++i) {
        order[i] = i;
        hpwl[i] = placement_->net_hpwl(NetId{i});
        if (placement_->dedicated_net(NetId{i})) continue;
        const SliceCoord from = placement_->cell_pos(nl.net(NetId{i}).driver.cell);
        for (const PinRef& sink : nl.sinks(NetId{i}))
            tiles += fabric::Device::distance(from, placement_->cell_pos(sink.cell));
        connections += nl.net(NetId{i}).fanout();
    }
    sinks_.reserve(connections);
    segments_.reserve(tiles);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) { return hpwl[a] < hpwl[b]; });
    for (const std::uint32_t i : order) route_net(NetId{i}, mode);
}

void RoutedDesign::reroute_net(NetId net, RouteMode mode) {
    REFPGA_EXPECTS(net.value() < routes_.size());
    rip_up(net);
    route_net(net, mode);
}

void RoutedDesign::unroute_net(NetId net) {
    REFPGA_EXPECTS(net.value() < routes_.size());
    rip_up(net);
}

std::string render_route(const RoutedDesign& design, NetId net) {
    const auto& placement = design.placement();
    const auto& nl = placement.nl();
    const auto& n = nl.net(net);
    const NetRoute route = design.route(net);

    // Bounding box with one tile of margin.
    int min_x = placement.device().cols() - 1;
    int max_x = 0;
    int min_y = placement.device().rows() - 1;
    int max_y = 0;
    auto extend = [&](int x, int y) {
        min_x = std::min(min_x, x);
        max_x = std::max(max_x, x);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
    };
    const SliceCoord from = placement.cell_pos(n.driver.cell);
    extend(from.x, from.y);
    for (const auto& sink : route.sinks) {
        for (const auto& seg : design.segments(sink)) {
            const int span = fabric::wire_params(seg.type).span;
            extend(seg.x, seg.y);
            extend(seg.horizontal ? seg.x + seg.step * span : seg.x,
                   seg.horizontal ? seg.y : seg.y + seg.step * span);
        }
        const SliceCoord to = placement.cell_pos(sink.sink.cell);
        extend(to.x, to.y);
    }
    min_x = std::max(0, min_x - 1);
    min_y = std::max(0, min_y - 1);
    max_x = std::min(placement.device().cols() - 1, max_x + 1);
    max_y = std::min(placement.device().rows() - 1, max_y + 1);

    const int w = max_x - min_x + 1;
    const int h = max_y - min_y + 1;
    std::vector<std::string> grid(static_cast<std::size_t>(h), std::string(static_cast<std::size_t>(w), '.'));
    auto put = [&](int x, int y, char c) {
        if (x < min_x || x > max_x || y < min_y || y > max_y) return;
        char& slot = grid[static_cast<std::size_t>(y - min_y)][static_cast<std::size_t>(x - min_x)];
        if (slot == '.' || c == 'D' || c == 'S') slot = c;
    };

    for (const auto& sink : route.sinks) {
        for (const auto& seg : design.segments(sink)) {
            const char mark = "-=hL"[static_cast<int>(seg.type)];  // by WireType
            const int span = fabric::wire_params(seg.type).span;
            int x = seg.x;
            int y = seg.y;
            for (int i = 0; i < span; ++i) {
                put(x, y, mark);
                (seg.horizontal ? x : y) += seg.step;
            }
        }
        const SliceCoord to = placement.cell_pos(sink.sink.cell);
        put(to.x, to.y, 'S');
    }
    put(from.x, from.y, 'D');

    std::ostringstream os;
    os << "net " << nl.name(net) << " (D=driver, S=sink, -=direct, ==double, h=hex, L=long)\n";
    for (auto it = grid.rbegin(); it != grid.rend(); ++it) os << *it << '\n';
    return os.str();
}

}  // namespace refpga::par
