#include "refpga/par/placer_reference.hpp"

#include <algorithm>
#include <cmath>

#include "refpga/common/rng.hpp"

namespace refpga::par {

using fabric::Region;
using fabric::SliceCoord;
using netlist::CellId;
using netlist::NetId;

namespace {

// The library annealer's schedule.
constexpr double kInitialTemperature = 4.0;
constexpr double kCooling = 0.92;
constexpr double kFinalTemperature = 0.05;

/// Nets touching each slice, used for incremental cost evaluation.
std::vector<std::vector<NetId>> nets_per_slice(const Placement& placement) {
    const auto& nl = placement.nl();
    const auto& design = placement.design();
    std::vector<std::vector<NetId>> result(design.slice_count());
    for (std::uint32_t ni = 0; ni < nl.net_count(); ++ni) {
        const NetId net{ni};
        if (placement.dedicated_net(net)) continue;
        const auto& n = nl.net(net);
        auto touch = [&](CellId cell) {
            const SliceId s = design.slice_of(cell);
            if (!s.valid()) return;
            auto& list = result[s.value()];
            if (list.empty() || list.back() != net) list.push_back(net);
        };
        touch(n.driver.cell);
        for (const auto& sink : nl.sinks(net)) touch(sink.cell);
    }
    return result;
}

}  // namespace

PlacerResult anneal_reference(Placement& placement, const PlacerOptions& options,
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

    auto net_cost = [&](NetId net) {
        return weight[net.value()] * placement.net_hpwl(net);
    };
    auto full_cost = [&] {
        double c = 0.0;
        for (std::uint32_t i = 0; i < nl.net_count(); ++i) c += net_cost(NetId{i});
        return c;
    };

    const auto slice_nets = nets_per_slice(placement);

    PlacerResult result;
    double cost = full_cost();
    result.initial_cost = std::lround(cost);

    if (design.slice_count() < 2) {
        result.final_cost = result.initial_cost;
        return result;
    }

    const long moves_per_temp = std::max<long>(
        64, std::lround(options.effort * 8.0 *
                        static_cast<double>(design.slice_count())));

    for (double temp = kInitialTemperature; temp > kFinalTemperature;
         temp *= kCooling) {
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

            // Incremental cost: nets touching either slice.
            double before = 0.0;
            for (const NetId net : slice_nets[si]) before += net_cost(net);
            if (other.valid())
                for (const NetId net : slice_nets[other.value()])
                    before += net_cost(net);

            placement.swap_sites(source, target);

            double after = 0.0;
            for (const NetId net : slice_nets[si]) after += net_cost(net);
            if (other.valid())
                for (const NetId net : slice_nets[other.value()])
                    after += net_cost(net);

            const double delta = after - before;
            const bool accept =
                delta <= 0.0 || rng.next_double() < std::exp(-delta / temp);
            if (accept) {
                cost += delta;
                ++result.moves_accepted;
            } else {
                placement.swap_sites(source, target);  // undo
            }
        }
    }

    result.final_cost = std::lround(full_cost());
    return result;
}

}  // namespace refpga::par
