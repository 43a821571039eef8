#include "refpga/par/reallocate.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace refpga::par {

using fabric::Region;
using fabric::SliceCoord;
using netlist::CellId;
using netlist::NetId;

double net_power_uw(const RoutedDesign& routed, NetId net,
                    const sim::ActivityMap& activity, double vdd) {
    return switch_power_uw(routed.route(net).capacitance_pf(),
                           activity.rate_hz(net), vdd);
}

// ------------------------------------------------------------------ adjacency

namespace {

template <typename Id>
std::vector<Id> sorted_unique(std::vector<Id> items) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    return items;
}

}  // namespace

std::vector<NetId> slice_nets(const Placement& placement, SliceId slice) {
    const auto& nl = placement.nl();
    const PackedSlice& ps = placement.design().slices()[slice.value()];
    std::vector<NetId> nets;
    const auto add_net = [&](NetId net) {
        if (net.valid() && !placement.dedicated_net(net)) nets.push_back(net);
    };
    for (const auto* cells : {&ps.luts, &ps.ffs})
        for (const CellId cell : *cells) {
            for (const NetId in : nl.inputs(cell)) add_net(in);
            for (const NetId out : nl.outputs(cell)) add_net(out);
            add_net(nl.cell(cell).clock);
        }
    return sorted_unique(std::move(nets));
}

std::vector<SliceId> net_slices(const Placement& placement, NetId net) {
    const auto& nl = placement.nl();
    std::vector<SliceId> slices;
    const auto add_cell = [&](CellId cell) {
        const SliceId s = cell.valid() ? placement.design().slice_of(cell) : SliceId{};
        if (s.valid()) slices.push_back(s);
    };
    add_cell(nl.net(net).driver.cell);
    for (const netlist::PinRef& sink : nl.sinks(net)) add_cell(sink.cell);
    return sorted_unique(std::move(slices));
}

// --------------------------------------------------------------- NetPowerCache

NetPowerCache::NetPowerCache(const RoutedDesign& routed,
                             const sim::ActivityMap& activity, double vdd)
    : routed_(&routed), activity_(&activity), vdd_(vdd) {
    const std::size_t count = routed.placement().nl().net_count();
    net_uw_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        net_uw_.push_back(net_power_uw(routed, NetId{i}, activity, vdd));
    total_uw_ = exact_total_uw();
}

double NetPowerCache::net_uw(NetId net) const {
    REFPGA_EXPECTS(net.value() < net_uw_.size());
    return net_uw_[net.value()];
}

void NetPowerCache::refresh(NetId net) {
    REFPGA_EXPECTS(net.value() < net_uw_.size());
    const double now = net_power_uw(*routed_, net, *activity_, vdd_);
    total_uw_ += now - net_uw_[net.value()];
    net_uw_[net.value()] = now;
}

double NetPowerCache::exact_total_uw() const {
    double total = 0.0;
    for (const double uw : net_uw_) total += uw;
    return total;
}

// --------------------------------------------------------------------- helpers

namespace {

/// Full timing re-analysis at least every this many committed moves, to keep
/// the accumulated delay bound tight.
constexpr int kTimingResyncPeriod = 8;

SliceCoord net_centroid(const Placement& placement, NetId net) {
    const auto& nl = placement.nl();
    const auto& n = nl.net(net);
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
    for (const auto& sink : nl.sinks(net)) add(sink.cell);
    if (count == 0) return SliceCoord{0, 0, 0};
    return SliceCoord{static_cast<int>(sx / count), static_cast<int>(sy / count), 0};
}

/// Hot nets ranked by *reducible* power: the share switched on routing wires
/// (pin capacitance is fixed by connectivity). Very-high-fanout nets are
/// excluded -- nothing the placer can do about hundreds of loads. Power is
/// keyed once per net before sorting; equal-power nets tie-break on the
/// lower id so the order is deterministic.
std::vector<NetId> rank_hot_nets(const RoutedDesign& routed,
                                 const sim::ActivityMap& activity,
                                 const ReallocateOptions& options) {
    const auto& nl = routed.placement().nl();
    struct HotNet {
        double wire_uw;
        NetId net;
    };
    std::vector<HotNet> keyed;
    keyed.reserve(nl.net_count());
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        const NetId net{i};
        if (nl.net(net).fanout() > kReallocMaxFanout) continue;
        const NetRoute r = routed.route(net);
        const double pin_c =
            RoutedDesign::kPinCapacitancePf * static_cast<double>(r.sinks.size());
        const double wire_c = std::max(r.capacitance_pf() - pin_c, 0.0);
        keyed.push_back(
            {switch_power_uw(wire_c, activity.rate_hz(net), options.vdd), net});
    }
    std::sort(keyed.begin(), keyed.end(), [](const HotNet& a, const HotNet& b) {
        if (a.wire_uw != b.wire_uw) return a.wire_uw > b.wire_uw;
        return a.net < b.net;
    });
    if (keyed.size() > options.net_count) keyed.resize(options.net_count);
    std::vector<NetId> order;
    order.reserve(keyed.size());
    for (const HotNet& h : keyed) order.push_back(h.net);
    return order;
}

/// Free sites in the (2*kReallocRadius+1)^2 window around the centroid, in
/// window scan order (the order candidates are reduced in).
std::vector<SliceCoord> enumerate_targets(const Placement& placement,
                                          const Region& region,
                                          const SliceCoord& centroid,
                                          const SliceCoord& original) {
    std::vector<SliceCoord> targets;
    for (int dy = -kReallocRadius; dy <= kReallocRadius; ++dy) {
        for (int dx = -kReallocRadius; dx <= kReallocRadius; ++dx) {
            for (int idx = 0; idx < fabric::Device::kSlicesPerClb; ++idx) {
                const SliceCoord target{centroid.x + dx, centroid.y + dy, idx};
                if (!region.contains(target.x, target.y)) continue;
                if (target == original) continue;
                // Only move into free sites; swapping would perturb an
                // unrelated net's power (the paper moved logic into free
                // slices too).
                if (placement.slice_at(target).valid()) continue;
                targets.push_back(target);
            }
        }
    }
    return targets;
}

// ---------------------------------------------------------------------- engine

/// One optimization run.
class Engine {
public:
    Engine(Placement& placement, RoutedDesign& routed,
           const sim::ActivityMap& activity, const ReallocateOptions& options)
        : placement_(placement),
          routed_(routed),
          activity_(activity),
          options_(options),
          cache_(routed, activity, options.vdd),
          rec_(options.recorder) {
        if (rec_ != nullptr) {
            obs::MetricRegistry& m = rec_->metrics();
            obs_passes_ = m.counter("realloc.passes_total");
            obs_nets_ = m.counter("realloc.nets_considered_total");
            obs_candidates_ = m.counter("realloc.candidates_evaluated_total");
            obs_pruned_ = m.counter("realloc.candidates_pruned_total");
            obs_commits_ = m.counter("realloc.moves_committed_total");
            obs_rejects_ = m.counter("realloc.moves_rejected_total");
            obs_resyncs_ = m.counter("realloc.timing_resyncs_total");
            obs_pass_wall_ = m.histogram(
                "realloc.pass_wall_seconds",
                {1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0});
        }
    }

    ReallocateReport run();

private:
    void optimize_net(NetId net, NetPowerChange& change);
    void optimize_slice(SliceId slice, const SliceCoord& centroid,
                        std::span<const NetId> affected, NetPowerChange& change);
    [[nodiscard]] double trial_cost(std::span<const NetId> affected, SliceId slice,
                                    const SliceCoord& pos);
    void prepare_bound(SliceId slice, std::span<const NetId> affected);
    [[nodiscard]] double cost_bound(const SliceCoord& pos) const;
    [[nodiscard]] TimingReport analyze() const { return analyze_timing(routed_); }
    void rip_all(std::span<const NetId> affected);
    void route_all_lp(std::span<const NetId> affected);
    [[nodiscard]] std::vector<std::vector<double>> capture_delays(
        std::span<const NetId> affected) const;
    [[nodiscard]] double bound_delta(
        std::span<const NetId> affected,
        const std::vector<std::vector<double>>& old_delays) const;
    [[nodiscard]] bool slice_touches_critical(SliceId slice) const;
    void resync(const TimingReport& report);

    Placement& placement_;
    RoutedDesign& routed_;
    const sim::ActivityMap& activity_;
    const ReallocateOptions& options_;

    NetPowerCache cache_;
    RouteScratch scratch_;

    /// One affected net's capacitance lower bound with the moved slice at a
    /// target, in pieces: connections with neither end on the slice add
    /// `fixed_tiles` whatever the target; each connection with exactly one
    /// end on it adds the distance from its other end (bound_ends_
    /// [ends_begin, ends_end)) to the target; one with both ends on it adds
    /// nothing.
    struct BoundNet {
        double rate_hz;
        std::size_t connections;
        long fixed_tiles;
        std::size_t ends_begin, ends_end;
    };
    std::vector<BoundNet> bound_nets_;  ///< in `affected` order
    std::vector<SliceCoord> bound_ends_;

    double limit_ = 0.0;
    double crit_bound_ = 0.0;           ///< sound upper bound on current critical path
    std::vector<bool> critical_;        ///< cell mask from the last full analysis
    int commits_since_resync_ = 0;

    obs::Recorder* rec_;
    obs::MetricId obs_passes_, obs_nets_, obs_candidates_, obs_pruned_, obs_commits_,
        obs_rejects_, obs_resyncs_, obs_pass_wall_;

    void obs_add(obs::MetricId id, double delta = 1.0) {
        if (rec_ != nullptr && rec_->enabled()) rec_->metrics().add(id, delta);
    }
};

ReallocateReport Engine::run() {
    const auto& nl = placement_.nl();
    obs_add(obs_passes_);
    obs::ScopedTimer pass_timer(rec_ != nullptr ? &rec_->metrics() : nullptr,
                                obs_pass_wall_);

    ReallocateReport report;
    report.total_before_uw = cache_.exact_total_uw();
    const TimingReport t0 = analyze();
    report.critical_before_ps = t0.critical_path_ps;
    limit_ = report.critical_before_ps * options_.timing_slack;
    crit_bound_ = t0.critical_path_ps;
    critical_ = critical_cell_mask(t0, nl.cell_count());

    for (const NetId net : rank_hot_nets(routed_, activity_, options_)) {
        obs_add(obs_nets_);
        NetPowerChange change;
        change.net = net;
        change.name = nl.name(net);
        change.before_uw = net_power_uw(routed_, net, activity_, options_.vdd);
        if (options_.capture_routes) change.route_before = render_route(routed_, net);
        optimize_net(net, change);
        change.after_uw = net_power_uw(routed_, net, activity_, options_.vdd);
        if (options_.capture_routes) change.route_after = render_route(routed_, net);
        report.nets.push_back(std::move(change));
    }

    report.total_after_uw = cache_.exact_total_uw();
    report.critical_after_ps = analyze().critical_path_ps;
    return report;
}

void Engine::optimize_net(NetId net, NetPowerChange& change) {
    // Step 1: re-route the net itself on low-capacitance wires.
    const NetId self[] = {net};
    const std::vector<std::vector<double>> old_delays = capture_delays(self);
    routed_.reroute_net(net, RouteMode::LowPower);
    cache_.refresh(net);
    crit_bound_ += bound_delta(self, old_delays);

    // Step 2: try to pull each participating slice toward the centroid.
    const SliceCoord centroid = net_centroid(placement_, net);
    for (const SliceId slice : net_slices(placement_, net))
        optimize_slice(slice, centroid, slice_nets(placement_, slice), change);
}

void Engine::optimize_slice(SliceId slice, const SliceCoord& centroid,
                            std::span<const NetId> affected,
                            NetPowerChange& change) {
    if (affected.empty()) return;  // no move can change any routed net

    const Region region = placement_.region_of(
        placement_.design().slices()[slice.value()].partition);
    const SliceCoord original = placement_.slice_pos(slice);
    const std::vector<SliceCoord> targets =
        enumerate_targets(placement_, region, centroid, original);
    if (targets.empty()) return;

    const std::vector<std::vector<double>> old_delays = capture_delays(affected);

    // Candidates are delta-costed against the base occupancy with every
    // affected net ripped up -- exactly the state a live re-route starts
    // from, so trial routes equal committed routes byte for byte.
    rip_all(affected);
    const double cost_before = trial_cost(affected, slice, original);
    prepare_bound(slice, affected);

    // Reduction in window order, strict improvement required: the first
    // (lowest-coordinate) candidate wins ties. Slice sites within one CLB are
    // adjacent in window order and share the tile coordinate, and routing
    // never reads the intra-CLB index, so their gains are bitwise equal and
    // only a tile's first site is ever selectable: evaluate that one alone.
    //
    // A candidate is trial-routed only when its cost bound leaves room to
    // beat best_gain. Each net's bound capacitance is at or below its
    // computed trial capacitance (RoutedDesign::capacitance_lower_bound_pf
    // absorbs the rounding of the router's sums), and switch_power_uw, the
    // sum over `affected` in one order and the subtraction from cost_before
    // are all monotone under rounding, so cost_before - bound is at least
    // the gain the trial would compute. A pruned candidate therefore could
    // never have passed `gain > best_gain`, and the choice is unchanged.
    double best_gain = 0.0;
    std::size_t best = targets.size();
    double evaluated = 0.0;
    double pruned = 0.0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
        if (i > 0 && targets[i].x == targets[i - 1].x &&
            targets[i].y == targets[i - 1].y)
            continue;
        if (cost_before - cost_bound(targets[i]) <= best_gain) {
            ++pruned;
            continue;
        }
        ++evaluated;
        const double gain = cost_before - trial_cost(affected, slice, targets[i]);
        if (gain > best_gain) {
            best_gain = gain;
            best = i;
        }
    }
    obs_add(obs_candidates_, evaluated);
    obs_add(obs_pruned_, pruned);

    const bool move = best < targets.size();
    if (move) placement_.swap_sites(original, targets[best]);
    route_all_lp(affected);

    if (!move) {
        // The restored routes need not equal the pre-step ones (they were
        // re-composed from the ripped-up base); keep the bound sound.
        crit_bound_ += bound_delta(affected, old_delays);
        return;
    }

    // Timing gate: undo the move if the clock target breaks. The full
    // analysis runs only when the accumulated delay bound no longer proves
    // the limit holds; the decision matches what a measurement would give.
    bool reject = false;
    const double delta = bound_delta(affected, old_delays);
    if (crit_bound_ + delta <= limit_) {
        crit_bound_ += delta;
        // Moving a critical-path slice likely reshaped the path: pull the
        // periodic resync closer so the bound re-tightens soon.
        if (slice_touches_critical(slice)) ++commits_since_resync_;
    } else {
        const TimingReport tr = analyze();
        reject = tr.critical_path_ps > limit_;
        if (!reject) resync(tr);
    }

    if (reject) {
        obs_add(obs_rejects_);
        rip_all(affected);
        placement_.swap_sites(targets[best], original);
        route_all_lp(affected);
        // Re-measure: the restored routes need not match what the bound last
        // described. Rejections are rare, so this resync is off the hot path.
        resync(analyze());
    } else {
        obs_add(obs_commits_);
        change.moved_logic = true;
        if (++commits_since_resync_ >= kTimingResyncPeriod)
            resync(analyze());
    }
}

double Engine::trial_cost(std::span<const NetId> affected, SliceId slice,
                          const SliceCoord& pos) {
    scratch_.clear();
    double cost = 0.0;
    for (const NetId a : affected)
        cost += switch_power_uw(
            routed_.trial_route_capacitance_pf(a, slice, pos, RouteMode::LowPower,
                                               scratch_),
            activity_.rate_hz(a), options_.vdd);
    return cost;
}

void Engine::prepare_bound(SliceId slice, std::span<const NetId> affected) {
    const auto& nl = placement_.nl();
    const PackedDesign& design = placement_.design();
    bound_nets_.clear();
    bound_ends_.clear();
    for (const NetId a : affected) {
        BoundNet b{activity_.rate_hz(a), 0, 0, bound_ends_.size(), 0};
        const netlist::Net& n = nl.net(a);
        // Mirrors trial_route_capacitance_pf: such nets cost nothing.
        if (!placement_.dedicated_net(a) && n.driven()) {
            b.connections = n.fanout();
            const bool driver_moves = design.slice_of(n.driver.cell) == slice;
            const SliceCoord from = placement_.cell_pos(n.driver.cell);
            for (const netlist::PinRef& sink : nl.sinks(a)) {
                const SliceCoord to = placement_.cell_pos(sink.cell);
                if ((design.slice_of(sink.cell) == slice) != driver_moves)
                    bound_ends_.push_back(driver_moves ? to : from);
                else if (!driver_moves)
                    b.fixed_tiles += std::abs(to.x - from.x) + std::abs(to.y - from.y);
            }
        }
        b.ends_end = bound_ends_.size();
        bound_nets_.push_back(b);
    }
}

double Engine::cost_bound(const SliceCoord& pos) const {
    // Same terms, in the same order, as trial_cost.
    double bound = 0.0;
    for (const BoundNet& b : bound_nets_) {
        long tiles = b.fixed_tiles;
        for (std::size_t e = b.ends_begin; e < b.ends_end; ++e) {
            const SliceCoord& end = bound_ends_[e];
            tiles += std::abs(pos.x - end.x) + std::abs(pos.y - end.y);
        }
        bound += switch_power_uw(
            RoutedDesign::capacitance_lower_bound_pf(b.connections, tiles), b.rate_hz,
            options_.vdd);
    }
    return bound;
}

void Engine::rip_all(std::span<const NetId> affected) {
    for (const NetId a : affected) routed_.unroute_net(a);
}

void Engine::route_all_lp(std::span<const NetId> affected) {
    for (const NetId a : affected) {
        routed_.reroute_net(a, RouteMode::LowPower);
        cache_.refresh(a);
    }
}

std::vector<std::vector<double>> Engine::capture_delays(
    std::span<const NetId> affected) const {
    std::vector<std::vector<double>> out;
    out.reserve(affected.size());
    for (const NetId a : affected) {
        const NetRoute r = routed_.route(a);
        std::vector<double> delays;
        delays.reserve(r.sinks.size());
        for (const auto& s : r.sinks) delays.push_back(s.delay_ps);
        out.push_back(std::move(delays));
    }
    return out;
}

double Engine::bound_delta(
    std::span<const NetId> affected,
    const std::vector<std::vector<double>>& old_delays) const {
    // Sound upper bound on critical-path growth from re-routing `affected`:
    // a register-to-register path crosses each net at most once, through
    // exactly one sink connection, so its delay grows by at most each net's
    // worst per-sink increase, summed over the re-routed nets.
    double total = 0.0;
    for (std::size_t k = 0; k < affected.size(); ++k) {
        const NetRoute r = routed_.route(affected[k]);
        if (r.sinks.size() != old_delays[k].size())
            return std::numeric_limits<double>::infinity();  // force re-analysis
        double worst = 0.0;
        for (std::size_t i = 0; i < r.sinks.size(); ++i)
            worst = std::max(worst, r.sinks[i].delay_ps - old_delays[k][i]);
        total += std::max(0.0, worst);
    }
    return total;
}

bool Engine::slice_touches_critical(SliceId slice) const {
    const PackedSlice& ps = placement_.design().slices()[slice.value()];
    for (const CellId cell : ps.luts)
        if (critical_[cell.value()]) return true;
    for (const CellId cell : ps.ffs)
        if (critical_[cell.value()]) return true;
    return false;
}

void Engine::resync(const TimingReport& report) {
    obs_add(obs_resyncs_);
    crit_bound_ = report.critical_path_ps;
    critical_ = critical_cell_mask(report, placement_.nl().cell_count());
    commits_since_resync_ = 0;
}

}  // namespace

ReallocateReport optimize_net_power(Placement& placement, RoutedDesign& routed,
                                    const sim::ActivityMap& activity,
                                    const ReallocateOptions& options) {
    return Engine(placement, routed, activity, options).run();
}

}  // namespace refpga::par
