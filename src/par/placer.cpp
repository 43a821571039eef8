#include "refpga/par/placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>

#include "refpga/common/rng.hpp"

namespace refpga::par {

using fabric::Region;
using fabric::SliceCoord;
using netlist::CellId;
using netlist::NetId;

namespace {

// Annealing schedule, in HPWL tiles. It is fixed rather than an option: a
// cooling factor of 1 or more would never reach the final temperature.
constexpr double kInitialTemperature = 4.0;
constexpr double kCooling = 0.92;
constexpr double kFinalTemperature = 0.05;

/// Relative margin on the bound's acceptance probability; it covers the
/// sub-ulp error of std::exp, which is not guaranteed monotone.
constexpr double kExpMargin = 1.0 + 1e-12;

/// Bounding box of a net's pins with the number of pins on each edge (Betz &
/// Rose, VPR, FPL'97).
struct NetBox {
    int xmin = std::numeric_limits<int>::max();
    int xmax = std::numeric_limits<int>::min();
    int ymin = std::numeric_limits<int>::max();
    int ymax = std::numeric_limits<int>::min();
    int on_xmin = 0;
    int on_xmax = 0;
    int on_ymin = 0;
    int on_ymax = 0;

    void add(const SliceCoord& pos, int pins) {
        extend(xmin, on_xmin, xmax, on_xmax, pos.x, pins);
        extend(ymin, on_ymin, ymax, on_ymax, pos.y, pins);
    }

    [[nodiscard]] bool empty() const { return on_xmin == 0; }
    [[nodiscard]] int hpwl() const { return (xmax - xmin) + (ymax - ymin); }

    /// Lower bound on hpwl() once `pins` of the net's pins move from `from`
    /// to `to`, while at least one of its pins stays put. Exact unless the
    /// move empties an edge.
    [[nodiscard]] int hpwl_after_move_lb(const SliceCoord& from, const SliceCoord& to,
                                         int pins) const {
        return extent_lb(xmin, on_xmin, xmax, on_xmax, from.x, to.x, pins) +
               extent_lb(ymin, on_ymin, ymax, on_ymax, from.y, to.y, pins);
    }

private:
    static void extend(int& lo, int& on_lo, int& hi, int& on_hi, int v, int pins) {
        if (v < lo) {
            lo = v;
            on_lo = pins;
        } else if (v == lo) {
            on_lo += pins;
        }
        if (v > hi) {
            hi = v;
            on_hi = pins;
        } else if (v == hi) {
            on_hi += pins;
        }
    }

    /// One axis of hpwl_after_move_lb. When the pins leave an edge that then
    /// holds none, the new edge is unknown without a rescan, but a pin that
    /// stays sits on the opposite edge, so the extent is at least the
    /// distance from `to` to that edge.
    static int extent_lb(int lo, int on_lo, int hi, int on_hi, int from, int to,
                         int pins) {
        if (to < from) {
            if (from == hi && on_hi == pins) return std::abs(to - lo);
            return hi - std::min(lo, to);
        }
        if (to > from) {
            if (from == lo && on_lo == pins) return std::abs(to - hi);
            return std::max(hi, to) - lo;
        }
        return hi - lo;
    }
};

/// `pins` pins of a net on one slice.
struct PinGroup {
    std::uint32_t id;  ///< the slice (in a net's list) or the net (in a slice's)
    int pins;
};

/// Per-net pin groups and per-slice net lists, precomputed once per anneal.
/// A slice lists its nets in ascending net id, the order the move cost sums
/// them in. A net whose pins all sit on one slice, with no fixed pin, is
/// listed nowhere: its HPWL is 0 wherever that slice goes, so it would add
/// +0.0 to both sums of every move of its slice, and the move bound, which
/// needs a pin that stays put, would not hold for it.
struct Connectivity {
    std::vector<std::uint32_t> net_begin;  ///< net_count + 1 offsets
    std::vector<PinGroup> net_slices;      ///< slice groups of each net
    std::vector<NetBox> fixed;             ///< per net: its BRAM/MULT/pad pins
    std::vector<std::uint32_t> slice_begin;  ///< slice_count + 1 offsets
    std::vector<PinGroup> slice_nets;        ///< net groups of each slice

    explicit Connectivity(const Placement& placement) {
        const auto& nl = placement.nl();
        const auto& design = placement.design();
        net_begin.reserve(nl.net_count() + 1);
        net_begin.push_back(0);
        fixed.resize(nl.net_count());
        std::vector<std::uint32_t> group_of(design.slice_count(),
                                            std::numeric_limits<std::uint32_t>::max());
        for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni) {
            const NetId net{ni};
            const std::size_t first = net_slices.size();
            if (!placement.dedicated_net(net)) {
                const auto& n = nl.net(net);
                auto touch = [&](CellId cell) {
                    const SliceId s = design.slice_of(cell);
                    if (!s.valid()) {
                        fixed[ni].add(placement.cell_pos(cell), 1);
                        return;
                    }
                    std::uint32_t& g = group_of[s.value()];
                    if (g == std::numeric_limits<std::uint32_t>::max()) {
                        g = static_cast<std::uint32_t>(net_slices.size());
                        net_slices.push_back({s.value(), 0});
                    }
                    ++net_slices[g].pins;
                };
                touch(n.driver.cell);
                for (const auto& sink : nl.sinks(net)) touch(sink.cell);
            }
            for (std::size_t g = first; g < net_slices.size(); ++g)
                group_of[net_slices[g].id] = std::numeric_limits<std::uint32_t>::max();
            net_begin.push_back(static_cast<std::uint32_t>(net_slices.size()));
        }

        slice_begin.assign(design.slice_count() + 1, 0);
        for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni)
            if (listed(ni))
                for (const PinGroup& g : slices_of(ni)) ++slice_begin[g.id + 1];
        for (std::size_t s = 0; s < design.slice_count(); ++s)
            slice_begin[s + 1] += slice_begin[s];
        slice_nets.resize(slice_begin.back());
        std::vector<std::uint32_t> fill(slice_begin.begin(), slice_begin.end() - 1);
        for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni)
            if (listed(ni))
                for (const PinGroup& g : slices_of(ni))
                    slice_nets[fill[g.id]++] = {ni, g.pins};
    }

    [[nodiscard]] bool listed(std::uint32_t net) const {
        const std::uint32_t groups = net_begin[net + 1] - net_begin[net];
        return groups > 1 || (groups == 1 && !fixed[net].empty());
    }
    [[nodiscard]] std::span<const PinGroup> slices_of(std::uint32_t net) const {
        return {net_slices.data() + net_begin[net], net_slices.data() + net_begin[net + 1]};
    }
    [[nodiscard]] std::span<const PinGroup> nets_of(std::uint32_t slice) const {
        return {slice_nets.data() + slice_begin[slice],
                slice_nets.data() + slice_begin[slice + 1]};
    }
};

}  // namespace

PlacerResult anneal(Placement& placement, const PlacerOptions& options,
                    const sim::ActivityMap* activity) {
    const auto& nl = placement.nl();
    const auto& design = placement.design();
    Rng rng(options.seed);

    // Per-net weight from activity.
    std::vector<double> weight(nl.net_count(), 1.0);
    if (activity != nullptr && options.activity_beta > 0.0) {
        double max_rate = 0.0;
        for (std::uint32_t i = 0; i < nl.net_count(); ++i)
            max_rate = std::max(max_rate, activity->rate_hz(NetId{i}));
        if (max_rate > 0.0)
            for (std::uint32_t i = 0; i < nl.net_count(); ++i)
                weight[i] = 1.0 + options.activity_beta *
                                      activity->rate_hz(NetId{i}) / max_rate;
    }

    auto full_cost = [&] {
        double c = 0.0;
        for (std::uint32_t i = 0; i < nl.net_count(); ++i)
            c += weight[i] * placement.net_hpwl(NetId{i});
        return c;
    };

    PlacerResult result;
    result.initial_cost = std::lround(full_cost());

    if (design.slice_count() < 2) {
        result.final_cost = result.initial_cost;
        return result;
    }

    // Cached box and weighted HPWL of every listed net. A move costs only
    // the nets of its two slices and sums their terms in the order a full
    // rescan would (first slice's nets, then the other's; a net on both
    // counts twice), so every accept decision is the same.
    const Connectivity conn(placement);
    auto net_box = [&](std::uint32_t net) {
        NetBox box = conn.fixed[net];
        for (const PinGroup& g : conn.slices_of(net))
            box.add(placement.slice_pos(SliceId{g.id}), g.pins);
        return box;
    };
    std::vector<NetBox> box(nl.net_count());
    std::vector<double> cost(nl.net_count(), 0.0);
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        if (!conn.listed(i)) continue;
        box[i] = net_box(i);
        cost[i] = weight[i] * box[i].hpwl();
    }

    // Per-move rescanned boxes, committed when the move is accepted.
    struct Trial {
        std::uint32_t net;
        NetBox box;
        double cost;
    };
    std::vector<Trial> trials;
    auto stage = [&](std::uint32_t net) {
        const NetBox b = net_box(net);
        const double c = weight[net] * b.hpwl();
        trials.push_back({net, b, c});
        return c;
    };

    const long moves_per_temp = std::max<long>(
        64, std::lround(options.effort * 8.0 *
                        static_cast<double>(design.slice_count())));
    long temperature_steps = 0;
    long moves_evaluated = 0;
    long moves_bound_rejected = 0;

    for (double temp = kInitialTemperature; temp > kFinalTemperature; temp *= kCooling) {
        ++temperature_steps;
        for (long m = 0; m < moves_per_temp; ++m) {
            ++result.moves_tried;
            // Pick a random slice and a random target site inside its region.
            const std::uint32_t si = rng.next_below(
                static_cast<std::uint32_t>(design.slice_count()));
            const Region region =
                placement.region_of(design.slices()[si].partition);
            SliceCoord target;
            target.x = region.x_begin +
                       static_cast<int>(rng.next_below(
                           static_cast<std::uint32_t>(region.width())));
            target.y = region.y_begin +
                       static_cast<int>(rng.next_below(
                           static_cast<std::uint32_t>(region.height())));
            target.index = static_cast<int>(
                rng.next_below(fabric::Device::kSlicesPerClb));

            const SliceCoord source = placement.slice_pos(SliceId{si});
            if (source == target) continue;
            const SliceId other = placement.slice_at(target);
            // Swapping across partitions would violate region constraints.
            if (other.valid() &&
                !placement.region_of(design.slices()[other.value()].partition)
                     .contains(source.x, source.y))
                continue;
            ++moves_evaluated;
            const std::span<const PinGroup> first = conn.nets_of(si);
            const std::span<const PinGroup> second =
                other.valid() ? conn.nets_of(other.value()) : std::span<const PinGroup>{};

            // Bound pass, read-only: `after_lb` adds, in `after`'s order, a
            // lower bound on each term. A net on one slice gets its box's
            // bound; a net on both keeps its cost, since the swap keeps its
            // set of pin sites (the merge of the sorted lists finds it).
            double before = 0.0;
            double after_lb = 0.0;
            auto bound = [&](std::span<const PinGroup> nets,
                             std::span<const PinGroup> others, const SliceCoord& from,
                             const SliceCoord& to) {
                auto o = others.begin();
                for (const PinGroup& g : nets) {
                    while (o != others.end() && o->id < g.id) ++o;
                    before += cost[g.id];
                    after_lb += o != others.end() && o->id == g.id
                                    ? cost[g.id]
                                    : weight[g.id] *
                                          box[g.id].hpwl_after_move_lb(from, to, g.pins);
                }
            };
            bound(first, second, source, target);
            bound(second, first, target, source);

            // Each bound term is at most its exact term and both sums round
            // monotonically in the same order, so delta_lb <= delta bit for
            // bit: a move the bound rejects, the exact cost rejects too, and
            // `u` is drawn exactly when the exact cost would draw it.
            const double delta_lb = after_lb - before;
            const bool drew = delta_lb > 0.0;
            const double u = drew ? rng.next_double() : 0.0;
            if (drew && u >= std::exp(-delta_lb / temp) * kExpMargin) {
                ++moves_bound_rejected;
                continue;
            }

            // Full evaluation: swap and rescan every affected net (a net on
            // both slices twice, as `after` counts it twice).
            placement.swap_sites(source, target);
            double after = 0.0;
            for (const PinGroup& g : first) after += stage(g.id);
            for (const PinGroup& g : second) after += stage(g.id);

            const double delta = after - before;
            const bool accept =
                delta <= 0.0 ||
                (drew ? u : rng.next_double()) < std::exp(-delta / temp);
            if (accept) {
                ++result.moves_accepted;
                for (const Trial& t : trials) {
                    box[t.net] = t.box;
                    cost[t.net] = t.cost;
                }
            } else {
                placement.swap_sites(source, target);  // undo
            }
            trials.clear();
        }
    }

    if (options.recorder != nullptr && options.recorder->enabled()) {
        obs::MetricRegistry& m = options.recorder->metrics();
        m.add(m.counter("anneal.moves_tried_total"),
              static_cast<double>(result.moves_tried));
        m.add(m.counter("anneal.moves_evaluated_total"),
              static_cast<double>(moves_evaluated));
        m.add(m.counter("anneal.moves_bound_rejected_total"),
              static_cast<double>(moves_bound_rejected));
        m.add(m.counter("anneal.moves_accepted_total"),
              static_cast<double>(result.moves_accepted));
        m.add(m.counter("anneal.temperature_steps_total"),
              static_cast<double>(temperature_steps));
    }

    result.final_cost = std::lround(full_cost());
    return result;
}

}  // namespace refpga::par
