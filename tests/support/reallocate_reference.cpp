#include "refpga/par/reallocate_reference.hpp"

#include <algorithm>
#include <set>
#include <vector>

namespace refpga::par {

using fabric::Region;
using fabric::SliceCoord;
using netlist::CellId;
using netlist::NetId;

namespace {

double total_power_uw(const RoutedDesign& routed, const sim::ActivityMap& activity,
                      double vdd) {
    double total = 0.0;
    for (std::uint32_t i = 0; i < routed.placement().nl().net_count(); ++i)
        total += net_power_uw(routed, NetId{i}, activity, vdd);
    return total;
}

/// Slices holding the net's driver or sinks, sorted, unique.
std::vector<SliceId> net_slices(const Placement& placement, NetId net) {
    const auto& n = placement.nl().net(net);
    std::set<SliceId> slices;
    auto add = [&](CellId cell) {
        const SliceId s = placement.design().slice_of(cell);
        if (s.valid()) slices.insert(s);
    };
    if (n.driven()) add(n.driver.cell);
    for (const auto& sink : n.sinks) add(sink.cell);
    return {slices.begin(), slices.end()};
}

/// Non-dedicated nets incident to a slice's cells, sorted, unique.
std::vector<NetId> incident_nets(const Placement& placement, SliceId slice) {
    const auto& nl = placement.nl();
    const auto& packed = placement.design().slices()[slice.value()];
    std::set<NetId> nets;
    auto add_cell = [&](CellId cell) {
        const auto& c = nl.cell(cell);
        for (const NetId in : c.inputs)
            if (in.valid() && !placement.dedicated_net(in)) nets.insert(in);
        for (const NetId out : c.outputs)
            if (out.valid() && !placement.dedicated_net(out)) nets.insert(out);
    };
    for (const CellId cell : packed.luts) add_cell(cell);
    for (const CellId cell : packed.ffs) add_cell(cell);
    return {nets.begin(), nets.end()};
}

SliceCoord net_centroid(const Placement& placement, NetId net) {
    const auto& n = placement.nl().net(net);
    long sx = 0;
    long sy = 0;
    long count = 0;
    auto add = [&](CellId cell) {
        const SliceCoord pos = placement.cell_pos(cell);
        sx += pos.x;
        sy += pos.y;
        ++count;
    };
    if (n.driven()) add(n.driver.cell);
    for (const auto& sink : n.sinks) add(sink.cell);
    if (count == 0) return SliceCoord{0, 0, 0};
    return SliceCoord{static_cast<int>(sx / count), static_cast<int>(sy / count), 0};
}

/// Nets with at most kReallocMaxFanout sinks, by descending power switched on
/// routing wires (pin capacitance is fixed by connectivity); ties on the
/// lower net id.
std::vector<NetId> rank_hot_nets(const RoutedDesign& routed,
                                 const sim::ActivityMap& activity,
                                 const ReallocateOptions& options) {
    const auto& nl = routed.placement().nl();
    std::vector<std::pair<double, NetId>> keyed;
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        const NetId net{i};
        if (nl.net(net).fanout() > kReallocMaxFanout) continue;
        const NetRoute& r = routed.route(net);
        const double pin_c =
            RoutedDesign::kPinCapacitancePf * static_cast<double>(r.sinks.size());
        const double wire_c = std::max(r.capacitance_pf() - pin_c, 0.0);
        keyed.emplace_back(switch_power_uw(wire_c, activity.rate_hz(net), options.vdd),
                           net);
    }
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });
    std::vector<NetId> order;
    for (std::size_t i = 0; i < keyed.size() && i < options.net_count; ++i)
        order.push_back(keyed[i].second);
    return order;
}

class Reference {
public:
    Reference(Placement& placement, RoutedDesign& routed,
              const sim::ActivityMap& activity, const ReallocateOptions& options)
        : placement_(placement), routed_(routed), activity_(activity), options_(options) {}

    ReallocateReport run() {
        ReallocateReport report;
        report.total_before_uw = total_power_uw(routed_, activity_, options_.vdd);
        report.critical_before_ps =
            analyze_timing(routed_).critical_path_ps;
        limit_ = report.critical_before_ps * options_.timing_slack;

        for (const NetId net : rank_hot_nets(routed_, activity_, options_)) {
            NetPowerChange change;
            change.net = net;
            change.name = placement_.nl().net(net).name;
            change.before_uw = net_power_uw(routed_, net, activity_, options_.vdd);
            if (options_.capture_routes) change.route_before = render_route(routed_, net);
            routed_.reroute_net(net, RouteMode::LowPower);
            const SliceCoord centroid = net_centroid(placement_, net);
            for (const SliceId slice : net_slices(placement_, net))
                optimize_slice(slice, centroid, incident_nets(placement_, slice), change);
            change.after_uw = net_power_uw(routed_, net, activity_, options_.vdd);
            if (options_.capture_routes) change.route_after = render_route(routed_, net);
            report.nets.push_back(std::move(change));
        }

        report.total_after_uw = total_power_uw(routed_, activity_, options_.vdd);
        report.critical_after_ps =
            analyze_timing(routed_).critical_path_ps;
        return report;
    }

private:
    void optimize_slice(SliceId slice, const SliceCoord& centroid,
                        const std::vector<NetId>& affected, NetPowerChange& change) {
        if (affected.empty()) return;
        const Region region = placement_.region_of(
            placement_.design().slices()[slice.value()].partition);
        const SliceCoord original = placement_.slice_pos(slice);

        // Free sites of the (2*kReallocRadius+1)^2 window around the
        // centroid, in window scan order.
        std::vector<SliceCoord> targets;
        for (int dy = -kReallocRadius; dy <= kReallocRadius; ++dy)
            for (int dx = -kReallocRadius; dx <= kReallocRadius; ++dx)
                for (int idx = 0; idx < fabric::Device::kSlicesPerClb; ++idx) {
                    const SliceCoord target{centroid.x + dx, centroid.y + dy, idx};
                    if (region.contains(target.x, target.y) && target != original &&
                        !placement_.slice_at(target).valid())
                        targets.push_back(target);
                }
        if (targets.empty()) return;
        count_selectable(targets);

        // Every candidate is applied to the live placement, routed from the
        // base occupancy with all affected nets ripped up, measured, and
        // undone; the baseline is re-measured the same way per candidate.
        rip(affected);
        double best_gain = 0.0;
        std::size_t best = targets.size();
        for (std::size_t i = 0; i < targets.size(); ++i) {
            placement_.swap_sites(original, targets[i]);
            const double cost_after = route_and_measure(affected);
            placement_.swap_sites(targets[i], original);
            const double cost_before = route_and_measure(affected);
            const double gain = cost_before - cost_after;
            if (gain > best_gain) {
                best_gain = gain;
                best = i;
            }
        }

        const bool move = best < targets.size();
        if (move) placement_.swap_sites(original, targets[best]);
        route(affected);
        if (!move) return;
        if (analyze_timing(routed_).critical_path_ps > limit_) {
            rip(affected);
            placement_.swap_sites(targets[best], original);
            route(affected);
        } else {
            change.moved_logic = true;
        }
    }

    /// Adds the targets that can win to realloc.candidates_selectable_total:
    /// every site of a tile costs the same, so under the strict tie rule only
    /// a tile's first free site in window order is ever chosen.
    void count_selectable(const std::vector<SliceCoord>& targets) {
        if (options_.recorder == nullptr) return;
        double selectable = 0.0;
        for (std::size_t i = 0; i < targets.size(); ++i)
            if (i == 0 || targets[i].x != targets[i - 1].x ||
                targets[i].y != targets[i - 1].y)
                ++selectable;
        obs::MetricRegistry& m = options_.recorder->metrics();
        m.add(m.counter("realloc.candidates_selectable_total"), selectable);
    }

    /// Routes `affected`, sums their power in ascending net order, rips them.
    double route_and_measure(const std::vector<NetId>& affected) {
        route(affected);
        double cost = 0.0;
        for (const NetId a : affected)
            cost += net_power_uw(routed_, a, activity_, options_.vdd);
        rip(affected);
        return cost;
    }

    void rip(const std::vector<NetId>& affected) {
        for (const NetId a : affected) routed_.unroute_net(a);
    }

    void route(const std::vector<NetId>& affected) {
        for (const NetId a : affected) routed_.reroute_net(a, RouteMode::LowPower);
    }

    Placement& placement_;
    RoutedDesign& routed_;
    const sim::ActivityMap& activity_;
    const ReallocateOptions& options_;
    double limit_ = 0.0;
};

}  // namespace

ReallocateReport optimize_net_power_reference(Placement& placement,
                                              RoutedDesign& routed,
                                              const sim::ActivityMap& activity,
                                              const ReallocateOptions& options) {
    return Reference(placement, routed, activity, options).run();
}

}  // namespace refpga::par
