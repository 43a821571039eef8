#include "refpga/par/placer.hpp"

#include <algorithm>
#include <cmath>
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

/// Bounding box of a net's pins with the number of pins on each edge, so a
/// move updates it in O(1) unless it empties an edge (Betz & Rose, VPR,
/// FPL'97).
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

    /// Moves `pins` pins from `from` to `to`. False when they leave an edge
    /// that then holds no pin: the new edge is unknown without a rescan.
    [[nodiscard]] bool move(const SliceCoord& from, const SliceCoord& to, int pins) {
        return shift(xmin, on_xmin, xmax, on_xmax, from.x, to.x, pins) &&
               shift(ymin, on_ymin, ymax, on_ymax, from.y, to.y, pins);
    }

    [[nodiscard]] int hpwl() const { return (xmax - xmin) + (ymax - ymin); }

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

    static bool shift(int& lo, int& on_lo, int& hi, int& on_hi, int from, int to,
                      int pins) {
        if (to < from) {
            if (to < lo) {
                lo = to;
                on_lo = pins;
            } else if (to == lo) {
                on_lo += pins;
            }
            if (from == hi && (on_hi -= pins) == 0) return false;
        } else if (to > from) {
            if (to > hi) {
                hi = to;
                on_hi = pins;
            } else if (to == hi) {
                on_hi += pins;
            }
            if (from == lo && (on_lo -= pins) == 0) return false;
        }
        return true;
    }
};

/// `pins` pins of a net on one slice.
struct PinGroup {
    std::uint32_t id;  ///< the slice (in a net's list) or the net (in a slice's)
    int pins;
};

/// Per-net pin groups and per-slice net lists, precomputed once per anneal.
/// A slice lists its nets in ascending net id, the order the move cost sums
/// them in.
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
        std::vector<std::uint32_t> degree(design.slice_count(), 0);
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
                        ++degree[s.value()];
                    }
                    ++net_slices[g].pins;
                };
                touch(n.driver.cell);
                for (const auto& sink : n.sinks) touch(sink.cell);
            }
            for (std::size_t g = first; g < net_slices.size(); ++g)
                group_of[net_slices[g].id] = std::numeric_limits<std::uint32_t>::max();
            net_begin.push_back(static_cast<std::uint32_t>(net_slices.size()));
        }

        slice_begin.assign(design.slice_count() + 1, 0);
        for (std::size_t s = 0; s < design.slice_count(); ++s)
            slice_begin[s + 1] = slice_begin[s] + degree[s];
        slice_nets.resize(net_slices.size());
        std::vector<std::uint32_t> fill(slice_begin.begin(), slice_begin.end() - 1);
        for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni)
            for (std::uint32_t g = net_begin[ni]; g < net_begin[ni + 1]; ++g)
                slice_nets[fill[net_slices[g].id]++] = {ni, net_slices[g].pins};
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

    // Cached box and weighted HPWL of every net on a slice. A move costs
    // only the nets of its two slices, and sums their terms exactly as a
    // full rescan would (first slice's nets, then the other's; a net on both
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
        if (conn.slices_of(i).empty()) continue;
        box[i] = net_box(i);
        cost[i] = weight[i] * box[i].hpwl();
    }

    // Per-move trial boxes; `slot` maps a net to its trial.
    struct Trial {
        std::uint32_t net;
        NetBox box;
        double cost;
    };
    std::vector<Trial> trials;
    constexpr std::uint32_t kNoTrial = std::numeric_limits<std::uint32_t>::max();
    constexpr std::uint32_t kOnOther = kNoTrial - 1;
    std::vector<std::uint32_t> slot(nl.net_count(), kNoTrial);
    auto stage = [&](std::uint32_t net, const NetBox& b) {
        const double c = weight[net] * b.hpwl();
        slot[net] = static_cast<std::uint32_t>(trials.size());
        trials.push_back({net, b, c});
        return c;
    };
    // Trial of a net on one swapped slice only: its pins there moved.
    auto stage_moved = [&](const PinGroup& g, const SliceCoord& from,
                           const SliceCoord& to) {
        NetBox b = box[g.id];
        if (!b.move(from, to, g.pins)) b = net_box(g.id);
        return stage(g.id, b);
    };

    const long moves_per_temp = std::max<long>(
        64, std::lround(options.effort * 8.0 *
                        static_cast<double>(design.slice_count())));

    for (double temp = kInitialTemperature; temp > kFinalTemperature; temp *= kCooling) {
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
            const std::span<const PinGroup> first = conn.nets_of(si);
            const std::span<const PinGroup> second =
                other.valid() ? conn.nets_of(other.value()) : std::span<const PinGroup>{};

            double before = 0.0;
            for (const PinGroup& g : first) before += cost[g.id];
            for (const PinGroup& g : second) before += cost[g.id];

            placement.swap_sites(source, target);

            // A net on both slices gets a full rescan (its pins moved both
            // ways) and is staged once but counted twice.
            for (const PinGroup& g : second) slot[g.id] = kOnOther;
            double after = 0.0;
            for (const PinGroup& g : first)
                after += slot[g.id] == kOnOther ? stage(g.id, net_box(g.id))
                                                : stage_moved(g, source, target);
            for (const PinGroup& g : second)
                after += slot[g.id] == kOnOther ? stage_moved(g, target, source)
                                                : trials[slot[g.id]].cost;

            const double delta = after - before;
            const bool accept =
                delta <= 0.0 || rng.next_double() < std::exp(-delta / temp);
            if (accept) {
                ++result.moves_accepted;
                for (const Trial& t : trials) {
                    box[t.net] = t.box;
                    cost[t.net] = t.cost;
                }
            } else {
                placement.swap_sites(source, target);  // undo
            }
            for (const Trial& t : trials) slot[t.net] = kNoTrial;
            trials.clear();
        }
    }

    result.final_cost = std::lround(full_cost());
    return result;
}

}  // namespace refpga::par
