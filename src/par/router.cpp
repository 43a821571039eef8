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

const NetRoute& RoutedDesign::route(NetId net) const {
    REFPGA_EXPECTS(net.value() < routes_.size());
    return routes_[net.value()];
}

double RoutedDesign::total_capacitance_pf() const {
    double c = 0.0;
    for (const auto& r : routes_) c += r.capacitance_pf();
    return c;
}

std::size_t RoutedDesign::usage_index(int x, int y, WireType t) const {
    const auto cols = placement_->device().cols();
    return (static_cast<std::size_t>(y) * cols + x) * fabric::kWireTypeCount +
           static_cast<std::size_t>(t);
}

bool RoutedDesign::segment_fits(const RouteSegment& seg,
                                const RouteScratch& scratch) const {
    const auto& params = wire_params(seg.type);
    const int cols = placement_->device().cols();
    const int rows = placement_->device().rows();
    const int cap = capacity_.of(seg.type);
    int x = seg.x;
    int y = seg.y;
    for (int i = 0; i < params.span; ++i) {
        if (x < 0 || x >= cols || y < 0 || y >= rows)
            return true;  // clipped at the die edge; remaining tiles are free
        const std::size_t idx =
            (static_cast<std::size_t>(y) * cols + x) * fabric::kWireTypeCount +
            static_cast<std::size_t>(seg.type);
        if (usage_[idx] + scratch.delta_[idx] >= cap) return false;
        (seg.horizontal ? x : y) += seg.step;
    }
    return true;
}

void RoutedDesign::occupy_scratch(const RouteSegment& seg, RouteScratch& scratch) const {
    const auto& params = wire_params(seg.type);
    const int cols = placement_->device().cols();
    const int rows = placement_->device().rows();
    int x = seg.x;
    int y = seg.y;
    for (int i = 0; i < params.span; ++i) {
        if (x < 0 || x >= cols || y < 0 || y >= rows) break;
        const std::size_t idx =
            (static_cast<std::size_t>(y) * cols + x) * fabric::kWireTypeCount +
            static_cast<std::size_t>(seg.type);
        if (scratch.delta_[idx] == 0) scratch.touched_.push_back(idx);
        ++scratch.delta_[idx];
        (seg.horizontal ? x : y) += seg.step;
    }
}

void RoutedDesign::commit_scratch(RouteScratch& scratch) {
    for (const std::size_t idx : scratch.touched_) usage_[idx] += scratch.delta_[idx];
    overflow_ += scratch.overflow_;
    scratch.clear();
}

void RoutedDesign::occupy_live(const RouteSegment& seg, int delta) {
    const auto& params = wire_params(seg.type);
    int x = seg.x;
    int y = seg.y;
    for (int i = 0; i < params.span; ++i) {
        if (x < 0 || x >= placement_->device().cols() || y < 0 ||
            y >= placement_->device().rows())
            break;
        usage_[usage_index(x, y, seg.type)] += delta;
        (seg.horizontal ? x : y) += seg.step;
    }
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
            // anyway and record the overflow (Pathfinder would negotiate;
            // a counted overflow keeps the model honest about congestion).
            const WireType t = WireType::Direct;
            chosen = RouteSegment{t, horizontal ? pos : fixed,
                                  horizontal ? fixed : pos, horizontal, step};
            ++scratch.overflow_;
        }
        occupy_scratch(chosen, scratch);
        emit(chosen);
        const int advanced = std::min(wire_params(chosen.type).span, remaining);
        pos += advanced * step;
        remaining -= advanced;
    }
}

SinkRoute RoutedDesign::route_connection(const SliceCoord& from, const SliceCoord& to,
                                         PinRef sink, RouteMode mode,
                                         RouteScratch& scratch) const {
    SinkRoute route;
    route.sink = sink;
    const auto collect = [&](const RouteSegment& seg) { route.segments.push_back(seg); };
    // L-shaped: horizontal first, then vertical.
    route_axis(from.y, from.x, to.x, true, mode, scratch, collect);
    route_axis(to.x, from.y, to.y, false, mode, scratch, collect);

    route.delay_ps = kPinDelayPs;
    route.capacitance_pf = kPinCapacitancePf;
    for (const auto& seg : route.segments) {
        const auto& params = wire_params(seg.type);
        route.capacitance_pf += params.capacitance_pf;
        route.delay_ps += params.delay_ps;
    }
    return route;
}

double RoutedDesign::route_connection_cost(const SliceCoord& from,
                                           const SliceCoord& to, RouteMode mode,
                                           RouteScratch& scratch) const {
    double capacitance_pf = kPinCapacitancePf;
    const auto cost = [&](const RouteSegment& seg) {
        capacitance_pf += wire_params(seg.type).capacitance_pf;
    };
    route_axis(from.y, from.x, to.x, true, mode, scratch, cost);
    route_axis(to.x, from.y, to.y, false, mode, scratch, cost);
    return capacitance_pf;
}

SliceCoord RoutedDesign::pos_of(netlist::CellId cell, SliceId moved,
                                const SliceCoord* moved_pos) const {
    if (moved_pos != nullptr) {
        const SliceId s = placement_->design().slice_of(cell);
        if (s.valid() && s == moved) return *moved_pos;
    }
    return placement_->cell_pos(cell);
}

void RoutedDesign::route_net_into(NetId net, RouteMode mode, SliceId moved,
                                  const SliceCoord* moved_pos, NetRoute& out,
                                  RouteScratch& scratch) const {
    scratch.ensure_size(usage_.size());
    const auto& nl = placement_->nl();
    const auto& n = nl.net(net);
    out.sinks.clear();
    out.routed = true;
    if (placement_->dedicated_net(net) || !n.driven()) return;
    const SliceCoord from = pos_of(n.driver.cell, moved, moved_pos);
    for (const PinRef& sink : n.sinks) {
        const SliceCoord to = pos_of(sink.cell, moved, moved_pos);
        out.sinks.push_back(route_connection(from, to, sink, mode, scratch));
    }
}

double RoutedDesign::trial_route_capacitance_pf(NetId net, SliceId moved,
                                                const SliceCoord& moved_pos,
                                                RouteMode mode,
                                                RouteScratch& scratch) const {
    REFPGA_EXPECTS(net.value() < routes_.size());
    scratch.ensure_size(usage_.size());
    const auto& n = placement_->nl().net(net);
    if (placement_->dedicated_net(net) || !n.driven()) return 0.0;
    const SliceCoord from = pos_of(n.driver.cell, moved, &moved_pos);
    double capacitance_pf = 0.0;
    for (const PinRef& sink : n.sinks) {
        const SliceCoord to = pos_of(sink.cell, moved, &moved_pos);
        capacitance_pf += route_connection_cost(from, to, mode, scratch);
    }
    return capacitance_pf;
}

void RoutedDesign::rip_up(NetId net) {
    NetRoute& r = routes_[net.value()];
    for (const auto& sink : r.sinks)
        for (const auto& seg : sink.segments) occupy_live(seg, -1);
    r.sinks.clear();
    r.routed = false;
}

void RoutedDesign::route_net(NetId net, RouteMode mode) {
    live_scratch_.ensure_size(usage_.size());
    live_scratch_.clear();
    route_net_into(net, mode, SliceId{}, nullptr, routes_[net.value()], live_scratch_);
    commit_scratch(live_scratch_);
}

void RoutedDesign::route_all(RouteMode mode) {
    for (std::uint32_t i = 0; i < routes_.size(); ++i)
        if (routes_[i].routed) rip_up(NetId{i});
    overflow_ = 0;
    // Route short nets first so they keep the cheap wires; long nets can
    // better amortize hex/long segments.
    std::vector<std::uint32_t> order(routes_.size());
    std::vector<int> hpwl(routes_.size());
    for (std::uint32_t i = 0; i < routes_.size(); ++i) {
        order[i] = i;
        hpwl[i] = placement_->net_hpwl(NetId{i});
    }
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
    const auto& route = design.route(net);

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
        for (const auto& seg : sink.segments) {
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
        for (const auto& seg : sink.segments) {
            const auto& params = fabric::wire_params(seg.type);
            char mark = '?';
            switch (seg.type) {
                case WireType::Direct: mark = '-'; break;
                case WireType::Double: mark = '='; break;
                case WireType::Hex: mark = 'h'; break;
                case WireType::Long: mark = 'L'; break;
            }
            int x = seg.x;
            int y = seg.y;
            for (int i = 0; i < params.span; ++i) {
                put(x, y, mark);
                (seg.horizontal ? x : y) += seg.step;
            }
        }
        const SliceCoord to = placement.cell_pos(sink.sink.cell);
        put(to.x, to.y, 'S');
    }
    put(from.x, from.y, 'D');

    std::ostringstream os;
    os << "net " << n.name << " (D=driver, S=sink, -=direct, ==double, h=hex, L=long)\n";
    for (auto it = grid.rbegin(); it != grid.rend(); ++it) os << *it << '\n';
    return os.str();
}

}  // namespace refpga::par
