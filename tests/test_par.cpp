#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "refpga/common/rng.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/netlist/simgraph.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/router.hpp"
#include "refpga/par/timing.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/event_sim.hpp"
#include "refpga/sim/simulator.hpp"

namespace refpga::par {
namespace {

using fabric::Device;
using fabric::PartName;
using fabric::Region;
using fabric::SliceCoord;
using netlist::Builder;
using netlist::Bus;
using netlist::Netlist;
using netlist::NetId;
using netlist::PartitionId;

struct Design {
    Netlist nl;
    NetId clk;
    Design() { clk = nl.add_input_port("clk", 1)[0]; }
};

// ---------------------------------------------------------------- pack

TEST(Pack, PairsLutWithDrivenFf) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 2);
    const NetId lut = b.and_(a[0], a[1]);
    const NetId q = b.ff(lut);
    d.nl.add_output_port("q", Bus{q});
    const PackedDesign packed = pack(d.nl);
    const auto lut_cell = d.nl.net(lut).driver.cell;
    const auto ff_cell = d.nl.net(q).driver.cell;
    EXPECT_EQ(packed.slice_of(lut_cell), packed.slice_of(ff_cell));
}

TEST(Pack, TwoLutsPerSlice) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 8);
    d.nl.add_output_port("o", b.not_bus(a));
    const PackedDesign packed = pack(d.nl);
    EXPECT_EQ(packed.slice_count(), 4u);
}

TEST(Pack, PartitionsNeverShareSlices) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 3);
    (void)b.not_bus(a);
    const PartitionId p1 = d.nl.add_partition("mod");
    d.nl.set_current_partition(p1);
    (void)b.not_bus(a);
    const PackedDesign packed = pack(d.nl);
    for (const PackedSlice& s : packed.slices()) {
        for (const auto cell : s.luts)
            EXPECT_EQ(d.nl.cell(cell).partition, s.partition);
        for (const auto cell : s.ffs)
            EXPECT_EQ(d.nl.cell(cell).partition, s.partition);
    }
    std::vector<std::size_t> counts(d.nl.partitions().size(), 0);
    for (const PackedSlice& s : packed.slices()) ++counts[s.partition.value()];
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
}

TEST(Pack, SeparatesBramMultPads) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus addr = d.nl.add_input_port("addr", 5);
    (void)b.rom_bram(addr, {1, 2, 3}, 8);
    const Bus x = d.nl.add_input_port("x", 8);
    d.nl.add_output_port("p", b.mul_mult18(x, x, 16, 0));
    const PackedDesign packed = pack(d.nl);
    EXPECT_EQ(packed.brams().size(), 1u);
    EXPECT_EQ(packed.mults().size(), 1u);
    EXPECT_GT(packed.pads().size(), 0u);
}

// ---------------------------------------------------------------- placement

struct Placed {
    Design d;
    PackedDesign packed;
    Device dev{PartName::XC3S200};

    explicit Placed(int counter_bits = 8) {
        Builder b(d.nl, d.clk);
        const Bus q = b.counter(counter_bits);
        d.nl.add_output_port("q", q);
        packed = pack(d.nl);
    }
};

TEST(Placement, InitialPlacementIsLegal) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    std::set<std::tuple<int, int, int>> seen;
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i) {
        const SliceCoord pos = placement.slice_pos(SliceId{i});
        EXPECT_TRUE(p.dev.valid_slice(pos));
        EXPECT_TRUE(seen.insert({pos.x, pos.y, pos.index}).second) << "overlap";
        EXPECT_EQ(placement.slice_at(pos), SliceId{i});
    }
}

TEST(Placement, RegionConstraintRespected) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    const Region region{0, 4, 0, 4};
    placement.constrain(PartitionId{0}, region);
    placement.place_initial();
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i) {
        const SliceCoord pos = placement.slice_pos(SliceId{i});
        EXPECT_TRUE(region.contains(pos.x, pos.y));
    }
}

TEST(Placement, TooSmallRegionThrows) {
    Placed p(32);
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.constrain(PartitionId{0}, Region{0, 1, 0, 1});
    EXPECT_THROW(placement.place_initial(), ContractViolation);
}

TEST(Placement, SwapSitesMovesBoth) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    const SliceCoord a = placement.slice_pos(SliceId{0});
    const SliceCoord empty{p.dev.cols() - 1, p.dev.rows() - 1, 3};
    ASSERT_FALSE(placement.slice_at(empty).valid());
    placement.swap_sites(a, empty);
    EXPECT_EQ(placement.slice_pos(SliceId{0}), empty);
    EXPECT_FALSE(placement.slice_at(a).valid());
}

TEST(Placement, ClockNetsAreDedicated) {
    Placed p;
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    EXPECT_TRUE(placement.dedicated_net(p.d.clk));
    EXPECT_EQ(placement.net_hpwl(p.d.clk), 0);
}

// ---------------------------------------------------------------- placer

TEST(Placer, AnnealReducesOrKeepsCost) {
    Placed p(16);
    Placement placement(p.dev, p.d.nl, p.packed);
    placement.place_initial();
    PlacerOptions options;
    options.seed = 3;
    options.effort = 0.5;
    const PlacerResult result = anneal(placement, options);
    EXPECT_LE(result.final_cost, result.initial_cost);
    EXPECT_GT(result.moves_tried, 0);
}

TEST(Placer, PreservesLegalityAndRegions) {
    Placed p(16);
    Placement placement(p.dev, p.d.nl, p.packed);
    const Region region{0, 6, 0, 6};
    placement.constrain(PartitionId{0}, region);
    placement.place_initial();
    PlacerOptions options;
    options.effort = 0.3;
    (void)anneal(placement, options);
    std::set<std::tuple<int, int, int>> seen;
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i) {
        const SliceCoord pos = placement.slice_pos(SliceId{i});
        EXPECT_TRUE(region.contains(pos.x, pos.y));
        EXPECT_TRUE(seen.insert({pos.x, pos.y, pos.index}).second);
    }
}

TEST(Placer, DeterministicForSeed) {
    Placed p1(12);
    Placed p2(12);
    Placement a(p1.dev, p1.d.nl, p1.packed);
    Placement b(p2.dev, p2.d.nl, p2.packed);
    a.place_initial();
    b.place_initial();
    PlacerOptions options;
    options.seed = 99;
    options.effort = 0.3;
    (void)anneal(a, options);
    (void)anneal(b, options);
    for (std::uint32_t i = 0; i < p1.packed.slice_count(); ++i)
        EXPECT_EQ(a.slice_pos(SliceId{i}), b.slice_pos(SliceId{i}));
}

// ---------------------------------------------------------------- router

struct Routed {
    Placed p;
    Placement placement;
    explicit Routed(int bits = 12) : p(bits), placement(p.dev, p.d.nl, p.packed) {
        placement.place_initial();
    }
};

TEST(Router, RoutesAllNets) {
    Routed r;
    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    for (std::uint32_t i = 0; i < r.p.d.nl.net_count(); ++i) {
        const NetId net{i};
        if (r.placement.dedicated_net(net)) continue;
        const auto nr = routed.route(net);
        EXPECT_TRUE(nr.routed);
        EXPECT_EQ(nr.sinks.size(), r.p.d.nl.sinks(net).size());
    }
}

TEST(Router, LowPowerModeUsesLessCapacitance) {
    Routed r(16);
    RoutedDesign perf(r.placement, {});
    perf.route_all(RouteMode::Performance);
    RoutedDesign low(r.placement, {});
    low.route_all(RouteMode::LowPower);
    EXPECT_LE(low.total_capacitance_pf(), perf.total_capacitance_pf());
}

TEST(Router, PerformanceModeIsFasterOnLongNets) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 1);
    const NetId n1 = b.not_(a[0]);
    // The consumer lives in another partition constrained to the far corner,
    // so net n1 must span the device.
    const auto far = d.nl.add_partition("far");
    d.nl.set_current_partition(far);
    const NetId n2 = b.not_(n1);
    d.nl.add_output_port("o", Bus{n2});
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S400);
    Placement placement(dev, d.nl, packed);
    placement.constrain(PartitionId{0}, Region{0, 2, 0, 2});
    placement.constrain(far, Region{dev.cols() - 2, dev.cols(), dev.rows() - 2,
                                    dev.rows()});
    placement.place_initial();

    RoutedDesign perf(placement, {});
    perf.route_all(RouteMode::Performance);
    RoutedDesign low(placement, {});
    low.route_all(RouteMode::LowPower);
    const auto max_delay_ps = [](const NetRoute& r) {
        double d = 0.0;
        for (const SinkRoute& s : r.sinks) d = std::max(d, s.delay_ps);
        return d;
    };
    EXPECT_LT(max_delay_ps(perf.route(n1)), max_delay_ps(low.route(n1)));
    EXPECT_LT(low.route(n1).capacitance_pf(), perf.route(n1).capacitance_pf());
}

TEST(Router, ReRouteReleasesChannels) {
    Routed r(16);
    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    const double before = routed.total_capacitance_pf();
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint32_t i = 0; i < r.p.d.nl.net_count(); ++i)
            if (!r.placement.dedicated_net(NetId{i}))
                routed.reroute_net(NetId{i}, RouteMode::Performance);
    EXPECT_NEAR(routed.total_capacitance_pf(), before, before * 0.1);
}

/// Channel overflow recounted from the routes' segments: each segment
/// occupies its tiles up to the die edge, and every wire a (tile, type)
/// holds beyond its capacity counts once.
long recount_overflow(const RoutedDesign& routed, const ChannelCapacity& capacity) {
    const Device& dev = routed.placement().device();
    std::vector<int> usage(static_cast<std::size_t>(dev.cols()) * dev.rows() *
                               fabric::kWireTypeCount,
                           0);
    for (std::uint32_t ni = 0; ni < routed.placement().nl().net_count(); ++ni)
        for (const SinkRoute& sink : routed.route(NetId{ni}).sinks)
            for (const RouteSegment& seg : routed.segments(sink)) {
                int x = seg.x;
                int y = seg.y;
                for (int i = 0; i < fabric::wire_params(seg.type).span; ++i) {
                    if (x < 0 || x >= dev.cols() || y < 0 || y >= dev.rows()) break;
                    ++usage[(static_cast<std::size_t>(y) * dev.cols() + x) *
                                fabric::kWireTypeCount +
                            static_cast<std::size_t>(seg.type)];
                    (seg.horizontal ? x : y) += seg.step;
                }
            }
    long excess = 0;
    for (std::size_t i = 0; i < usage.size(); ++i)
        excess += std::max(
            0, usage[i] - capacity.of(static_cast<fabric::WireType>(
                              i % fabric::kWireTypeCount)));
    return excess;
}

TEST(Router, OverflowCountIsLiveAcrossReroutes) {
    Routed r(16);
    const ChannelCapacity saturated{1, 1, 1, 1};
    RoutedDesign routed(r.placement, saturated);
    routed.route_all(RouteMode::Performance);
    const long after_route_all = routed.overflow_count();
    EXPECT_GT(after_route_all, 0);
    EXPECT_EQ(after_route_all, recount_overflow(routed, saturated));

    for (std::uint32_t i = 0; i < r.p.d.nl.net_count(); ++i)
        routed.reroute_net(NetId{i}, RouteMode::LowPower);
    EXPECT_GT(routed.overflow_count(), 0);
    EXPECT_EQ(routed.overflow_count(), recount_overflow(routed, saturated));

    for (std::uint32_t i = 0; i < r.p.d.nl.net_count(); ++i)
        routed.unroute_net(NetId{i});
    EXPECT_EQ(routed.overflow_count(), 0);
}

/// Every route equal, connection for connection and segment for segment,
/// and the design totals with them.
void expect_same_routes(const RoutedDesign& a, const RoutedDesign& b) {
    for (std::uint32_t i = 0; i < a.placement().nl().net_count(); ++i) {
        const NetRoute ra = a.route(NetId{i});
        const NetRoute rb = b.route(NetId{i});
        ASSERT_EQ(ra.routed, rb.routed) << "net " << i;
        ASSERT_EQ(ra.sinks.size(), rb.sinks.size()) << "net " << i;
        for (std::size_t k = 0; k < ra.sinks.size(); ++k) {
            EXPECT_EQ(ra.sinks[k].sink, rb.sinks[k].sink);
            EXPECT_EQ(ra.sinks[k].capacitance_pf, rb.sinks[k].capacitance_pf);
            EXPECT_EQ(ra.sinks[k].delay_ps, rb.sinks[k].delay_ps);
            const auto sa = a.segments(ra.sinks[k]);
            const auto sb = b.segments(rb.sinks[k]);
            ASSERT_EQ(sa.size(), sb.size()) << "net " << i << " sink " << k;
            for (std::size_t g = 0; g < sa.size(); ++g)
                EXPECT_TRUE(std::tie(sa[g].type, sa[g].x, sa[g].y, sa[g].horizontal,
                                     sa[g].step) == std::tie(sb[g].type, sb[g].x, sb[g].y,
                                                             sb[g].horizontal, sb[g].step));
        }
    }
    EXPECT_EQ(a.total_capacitance_pf(), b.total_capacitance_pf());
    EXPECT_EQ(a.overflow_count(), b.overflow_count());
}

TEST(Router, RepeatedReroutesMatchAFreshlyRoutedDesign) {
    Routed r(16);
    const auto nets = static_cast<std::uint32_t>(r.p.d.nl.net_count());
    // Thousands of rip-ups and re-routes in both modes, so the arenas hold
    // far more dead ranges than live ones.
    const auto churn = [&](RoutedDesign& routed) {
        Rng rng(31);
        for (int k = 0; k < 3000; ++k) {
            const NetId net{rng.next_below(nets)};
            if (rng.next_below(3) == 0)
                routed.unroute_net(net);
            else
                routed.reroute_net(net, rng.next_below(2) == 0 ? RouteMode::LowPower
                                                                : RouteMode::Performance);
        }
    };

    // Ample channels: a route depends only on its endpoints and mode, so
    // re-routing every net in Performance mode gives the fresh design back.
    const ChannelCapacity ample{1000, 1000, 1000, 1000};
    RoutedDesign fresh(r.placement, ample);
    fresh.route_all(RouteMode::Performance);
    RoutedDesign churned(r.placement, ample);
    churned.route_all(RouteMode::Performance);
    churn(churned);
    for (std::uint32_t i = 0; i < nets; ++i) churned.reroute_net(NetId{i}, RouteMode::Performance);
    expect_same_routes(churned, fresh);

    // Saturated channels: routes depend on what is already routed, and
    // route_all starts from nothing whatever came before.
    const ChannelCapacity saturated{1, 1, 1, 1};
    RoutedDesign tight_fresh(r.placement, saturated);
    tight_fresh.route_all(RouteMode::Performance);
    EXPECT_GT(tight_fresh.overflow_count(), 0);
    RoutedDesign tight(r.placement, saturated);
    tight.route_all(RouteMode::LowPower);
    churn(tight);
    tight.route_all(RouteMode::Performance);
    expect_same_routes(tight, tight_fresh);
}

TEST(Router, RenderRouteShowsDriver) {
    Routed r;
    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    for (std::uint32_t i = 0; i < r.p.d.nl.net_count(); ++i) {
        const NetId net{i};
        if (r.placement.dedicated_net(net) || r.p.d.nl.sinks(net).empty())
            continue;
        const std::string view = render_route(routed, net);
        EXPECT_NE(view.find('D'), std::string::npos);
        break;
    }
}

/// Summed Manhattan length, in tiles, of `net`'s connections with slice
/// `moved` at `moved_pos` and every other cell where it is placed.
long manhattan_tiles(const Placement& placement, NetId net, SliceId moved,
                     const SliceCoord& moved_pos) {
    const auto pos = [&](netlist::CellId cell) {
        return moved.valid() && placement.design().slice_of(cell) == moved
                   ? moved_pos
                   : placement.cell_pos(cell);
    };
    const netlist::Net& n = placement.nl().net(net);
    const SliceCoord from = pos(n.driver.cell);
    long tiles = 0;
    for (const netlist::PinRef& sink : placement.nl().sinks(net)) {
        const SliceCoord to = pos(sink.cell);
        tiles += std::abs(to.x - from.x) + std::abs(to.y - from.y);
    }
    return tiles;
}

TEST(Router, CapacitanceLowerBoundIsAdmissible) {
    // Random LUT nets on slices scattered over the die, the first ones
    // pinned to its corners and edges, routed in both modes on default and
    // on saturated channels. Every routed connection, and every trial route
    // of a random move (edge targets included) over a randomly thinned and
    // scratch-loaded occupancy, must cost at least the bound.
    Design d;
    Rng rng(27);
    const auto below = [&](std::size_t n) {
        return rng.next_below(static_cast<std::uint32_t>(n));
    };
    std::vector<NetId> pool = d.nl.add_input_port("a", 6);
    for (int i = 0; i < 160; ++i) {
        std::vector<NetId> inputs;
        const std::size_t k = 1 + below(4);
        while (inputs.size() < k) {
            const NetId in = pool[below(pool.size())];
            if (std::find(inputs.begin(), inputs.end(), in) == inputs.end())
                inputs.push_back(in);
        }
        pool.push_back(d.nl.add_lut(static_cast<std::uint16_t>(rng.next_u64()), inputs,
                                    std::string("l").append(std::to_string(i))));
    }
    d.nl.add_output_port("o", Bus(pool.end() - 8, pool.end()));
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S200);
    const int cols = dev.cols();
    const int rows = dev.rows();
    const std::vector<SliceCoord> edges = {
        {0, 0, 0},        {cols - 1, 0, 1},        {0, rows - 1, 2},
        {cols - 1, rows - 1, 3}, {cols / 2, 0, 0}, {0, rows / 2, 1},
        {cols - 1, rows / 2, 2}, {cols / 2, rows - 1, 3}};
    const auto random_site = [&] {
        return SliceCoord{static_cast<int>(below(static_cast<std::size_t>(cols))),
                          static_cast<int>(below(static_cast<std::size_t>(rows))),
                          static_cast<int>(below(4))};
    };
    Placement placement(dev, d.nl, packed);
    placement.place_initial();
    for (std::uint32_t i = 0; i < packed.slice_count(); ++i) {
        const SliceCoord target = i < edges.size() ? edges[i] : random_site();
        if (!placement.slice_at(target).valid())
            placement.swap_sites(placement.slice_pos(SliceId{i}), target);
    }

    long connections = 0;
    long trials = 0;
    long attained = 0;
    const ChannelCapacity saturated{1, 1, 1, 1};
    for (const ChannelCapacity capacity : {ChannelCapacity{}, saturated}) {
        for (const RouteMode mode : {RouteMode::Performance, RouteMode::LowPower}) {
            RoutedDesign routed(placement, capacity);
            routed.route_all(mode);
            if (capacity.direct == 1) {
                EXPECT_GT(routed.overflow_count(), 0);
            }
            for (std::uint32_t ni = 0; ni < d.nl.net_count(); ++ni) {
                const NetId net{ni};
                const netlist::Net& n = d.nl.net(net);
                if (placement.dedicated_net(net) || !n.driven()) continue;
                const SliceCoord from = placement.cell_pos(n.driver.cell);
                for (const SinkRoute& s : routed.route(net).sinks) {
                    const SliceCoord to = placement.cell_pos(s.sink.cell);
                    const double bound = RoutedDesign::capacitance_lower_bound_pf(
                        1, std::abs(to.x - from.x) + std::abs(to.y - from.y));
                    EXPECT_GE(s.capacitance_pf, bound) << d.nl.name(net);
                    if (s.capacitance_pf - bound < 1e-6) ++attained;
                    ++connections;
                }
            }

            for (std::uint32_t ni = 0; ni < d.nl.net_count(); ++ni)
                if (!placement.dedicated_net(NetId{ni}) && below(3) == 0)
                    routed.unroute_net(NetId{ni});
            RouteScratch scratch;
            for (std::uint32_t ni = 0; ni < d.nl.net_count(); ++ni) {
                const NetId net{ni};
                const netlist::Net& n = d.nl.net(net);
                if (placement.dedicated_net(net) || !n.driven()) continue;
                for (int t = 0; t < 3; ++t) {
                    // Move the driver's slice, a sink's or any slice; a pad
                    // has none, and then nothing moves.
                    SliceId moved{below(packed.slice_count())};
                    if (t == 0)
                        moved = packed.slice_of(n.driver.cell);
                    else if (t == 1 && n.fanout() > 0)
                        moved = packed.slice_of(d.nl.sinks(net)[below(n.fanout())].cell);
                    const SliceCoord target = t == 0 ? edges[below(edges.size())] : random_site();
                    const double trial = routed.trial_route_capacitance_pf(
                        net, moved, target, mode, scratch);
                    EXPECT_GE(trial, RoutedDesign::capacitance_lower_bound_pf(
                                         n.fanout(),
                                         manhattan_tiles(placement, net, moved, target)))
                        << d.nl.name(net);
                    ++trials;
                }
                if (below(4) == 0) scratch.clear();
            }
        }
    }
    EXPECT_GT(connections, 1000);
    EXPECT_GT(trials, 1000);
    // Not vacuous: short LowPower connections on free Direct channels cost
    // exactly pins + r_min x distance.
    EXPECT_GT(attained, 0);
}

TEST(Router, SwitchPowerFormula) {
    // 10 pF at 50 MHz toggle, 1.2 V: P = 0.5 * 10e-12 * 1.44 * 50e6 = 360 uW.
    EXPECT_NEAR(switch_power_uw(10.0, 50e6, 1.2), 360.0, 1e-6);
}

// ---------------------------------------------------------------- timing

TEST(Timing, SharesTheNetlistsLevelizationWithTheSimulator) {
    Routed r(8);
    Netlist& nl = r.p.d.nl;
    const netlist::SimGraph& graph = nl.sim_graph();
    EXPECT_EQ(&nl.sim_graph(), &graph);
    const sim::EventSimulator simulator(nl);
    EXPECT_EQ(&simulator.graph(), &graph);

    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    EXPECT_GT(analyze_timing(routed).critical_path_ps, 0.0);
    const sim::ActivityMap activity(nl.net_count());
    (void)optimize_net_power(r.placement, routed, activity, {});
    // Timing and the reallocator read it and built no other.
    EXPECT_EQ(&nl.sim_graph(), &graph);

    // A structural change drops it; the next reader levelizes afresh.
    const std::size_t comb = graph.comb_order().size();
    (void)nl.add_lut(0x1, std::vector<NetId>{nl.add_input_port("x", 1)[0]}, "extra");
    EXPECT_EQ(nl.sim_graph().comb_order().size(), comb + 1);
}

TEST(Timing, DeeperLogicHasLongerCriticalPath) {
    auto critical_for = [](int depth) {
        Design d;
        Builder b(d.nl, d.clk);
        const Bus a = d.nl.add_input_port("a", 1);
        NetId n = b.ff(a[0]);
        for (int i = 0; i < depth; ++i) n = b.not_(n);
        (void)b.ff(n);
        const PackedDesign packed = pack(d.nl);
        const Device dev(PartName::XC3S200);
        Placement placement(dev, d.nl, packed);
        placement.place_initial();
        RoutedDesign routed(placement, {});
        routed.route_all(RouteMode::Performance);
        return analyze_timing(routed).critical_path_ps;
    };
    const double d2 = critical_for(2);
    const double d8 = critical_for(8);
    EXPECT_GT(d8, d2);
    EXPECT_GT(d2, 0.0);
}

TEST(Timing, ReportsCriticalCells) {
    Routed r(8);
    RoutedDesign routed(r.placement, {});
    routed.route_all(RouteMode::Performance);
    const TimingReport report = analyze_timing(routed);
    EXPECT_GT(report.critical_path_ps, 0.0);
    EXPECT_FALSE(report.critical_cells.empty());
    EXPECT_GT(report.fmax_mhz(), 0.0);
}

// ---------------------------------------------------------------- reallocate

TEST(Reallocate, ReducesHotNetPowerWithoutRaisingTotal) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(8);
    Bus x = q;
    for (int i = 0; i < 3; ++i) x = b.not_bus(x);
    d.nl.add_output_port("o", x);
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S400);
    Placement placement(dev, d.nl, packed);
    placement.place_initial();

    // Scatter slices to create long, power-hungry nets.
    Rng rng(5);
    for (std::uint32_t i = 0; i < packed.slice_count(); ++i) {
        const SliceCoord target{
            static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.cols()))),
            static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.rows()))),
            static_cast<int>(rng.next_below(4))};
        if (!placement.slice_at(target).valid())
            placement.swap_sites(placement.slice_pos(SliceId{i}), target);
    }

    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);

    sim::Simulator simulator(d.nl);
    simulator.run(512);
    const sim::ActivityMap activity = sim::activity_from_simulation(simulator, 50e6);

    ReallocateOptions options;
    options.net_count = 5;
    const ReallocateReport report =
        optimize_net_power(placement, routed, activity, options);

    ASSERT_EQ(report.nets.size(), 5u);
    // The paper's invariant: total dynamic power decreased, not increased.
    EXPECT_LE(report.total_after_uw, report.total_before_uw);
    EXPECT_LE(report.nets[0].after_uw, report.nets[0].before_uw);
}

TEST(Reallocate, HonoursTimingGate) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(6);
    d.nl.add_output_port("o", b.not_bus(q));
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S200);
    Placement placement(dev, d.nl, packed);
    placement.place_initial();
    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);

    sim::Simulator simulator(d.nl);
    simulator.run(128);
    const sim::ActivityMap activity = sim::activity_from_simulation(simulator, 50e6);

    ReallocateOptions options;
    options.net_count = 3;
    options.timing_slack = 1.50;
    const ReallocateReport report =
        optimize_net_power(placement, routed, activity, options);
    EXPECT_LE(report.critical_after_ps, report.critical_before_ps * 1.5 + 1.0);
}

TEST(Reallocate, CaptureRoutesProducesViews) {
    Design d;
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(4);
    d.nl.add_output_port("o", b.not_bus(q));
    const PackedDesign packed = pack(d.nl);
    const Device dev(PartName::XC3S200);
    Placement placement(dev, d.nl, packed);
    placement.place_initial();
    RoutedDesign routed(placement, {});
    routed.route_all(RouteMode::Performance);
    sim::Simulator simulator(d.nl);
    simulator.run(64);
    const auto activity = sim::activity_from_simulation(simulator, 50e6);
    ReallocateOptions options;
    options.net_count = 1;
    options.capture_routes = true;
    const auto report = optimize_net_power(placement, routed, activity, options);
    ASSERT_EQ(report.nets.size(), 1u);
    EXPECT_FALSE(report.nets[0].route_before.empty());
    EXPECT_FALSE(report.nets[0].route_after.empty());
}

}  // namespace
}  // namespace refpga::par
