// Equivalence and unit tests for the §4.3 reallocation engine.
//
// The library's incremental engine must produce a ReallocateReport
// byte-identical to the reference oracle of the test-support library. These
// tests pin that contract with the defaulted operator== — every double must
// match bitwise, not just approximately.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "refpga/common/contracts.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/reallocate_reference.hpp"
#include "refpga/par/router.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/simulator.hpp"

namespace refpga::par {
namespace {

using fabric::Device;
using fabric::PartName;
using fabric::SliceCoord;
using netlist::Builder;
using netlist::Bus;
using netlist::CellId;
using netlist::Netlist;
using netlist::NetId;

struct Design {
    Netlist nl;
    NetId clk;
    Design() { clk = nl.add_input_port("clk", 1)[0]; }
};

// Scattered-counter scenario shared by the equivalence tests: the flow is
// deterministic, so rebuilding it fresh per engine run reproduces the exact
// same pre-optimization state (same trick the bench uses).
struct Scenario {
    Design d;
    PackedDesign packed;
    Device dev{PartName::XC3S400};
    Placement placement;
    RoutedDesign routed;
    sim::ActivityMap activity;

    explicit Scenario(ChannelCapacity capacity = {})
        : packed(build(d)),
          placement(dev, d.nl, packed),
          routed((prepare(placement), placement), capacity),
          activity(sim::ActivityMap(0)) {
        routed.route_all(RouteMode::Performance);
        sim::Simulator simulator(d.nl);
        simulator.run(512);
        activity = sim::activity_from_simulation(simulator, 50e6);
    }

    static PackedDesign build(Design& d) {
        Builder b(d.nl, d.clk);
        const Bus q = b.counter(8);
        Bus x = q;
        for (int i = 0; i < 3; ++i) x = b.not_bus(x);
        d.nl.add_output_port("o", x);
        return pack(d.nl);
    }

    // Scatter slices to create long, power-hungry nets (as test_par does).
    static void prepare(Placement& placement) {
        placement.place_initial();
        const Device& dev = placement.device();
        Rng rng(5);
        for (std::uint32_t i = 0; i < placement.design().slice_count(); ++i) {
            const SliceCoord target{
                static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.cols()))),
                static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.rows()))),
                static_cast<int>(rng.next_below(4))};
            if (!placement.slice_at(target).valid())
                placement.swap_sites(placement.slice_pos(SliceId{i}), target);
        }
    }
};

ReallocateReport run_engine(const ReallocateOptions& options,
                            ChannelCapacity capacity = {}) {
    Scenario s(capacity);
    return optimize_net_power(s.placement, s.routed, s.activity, options);
}

ReallocateReport run_reference(const ReallocateOptions& options,
                               ChannelCapacity capacity = {}) {
    Scenario s(capacity);
    return optimize_net_power_reference(s.placement, s.routed, s.activity, options);
}

ReallocateOptions base_options() {
    ReallocateOptions options;
    options.net_count = 5;
    return options;
}

// ------------------------------------------------- engine equivalence

TEST(ReallocateEngine, IncrementalMatchesReferenceBitwise) {
    const ReallocateOptions options = base_options();
    const ReallocateReport reference = run_reference(options);
    const ReallocateReport incremental = run_engine(options);

    ASSERT_EQ(reference.nets.size(), 5u);
    EXPECT_TRUE(incremental == reference);
    // The scenario must actually exercise the move machinery, or the
    // equivalence above is vacuous.
    EXPECT_TRUE(std::any_of(reference.nets.begin(), reference.nets.end(),
                            [](const NetPowerChange& c) { return c.moved_logic; }));
    EXPECT_LT(reference.total_after_uw, reference.total_before_uw);
}

TEST(ReallocateEngine, TightSlackStillEquivalent) {
    // slack 1.0 forces the timing gate to reject aggressively, exercising
    // the reject/rollback path in both implementations.
    ReallocateOptions options = base_options();
    options.timing_slack = 1.0;
    const ReallocateReport reference = run_reference(options);
    const ReallocateReport incremental = run_engine(options);
    EXPECT_TRUE(incremental == reference);
    EXPECT_LE(reference.critical_after_ps, reference.critical_before_ps + 1e-9);
}

TEST(ReallocateEngine, PruningKeepsReportsBitwiseAndCountsEveryCandidate) {
    // Pruned candidates are never trial-routed, so only the decisions pin the
    // pruning: the reports must equal the oracle's, which applies and measures
    // every site, on open and on saturated channels (where most connections
    // overflow onto span-1 Direct wires, which the bound charges exactly).
    const ChannelCapacity saturated{1, 1, 1, 1};
    for (const ChannelCapacity capacity : {ChannelCapacity{}, saturated}) {
        SCOPED_TRACE(capacity.direct);
        obs::Recorder engine_rec;
        obs::Recorder oracle_rec;
        ReallocateOptions options = base_options();
        options.net_count = 8;
        options.recorder = &oracle_rec;
        const ReallocateReport reference = run_reference(options, capacity);
        options.recorder = &engine_rec;
        const ReallocateReport incremental = run_engine(options, capacity);
        EXPECT_TRUE(incremental == reference);
        EXPECT_TRUE(std::any_of(reference.nets.begin(), reference.nets.end(),
                                [](const NetPowerChange& c) { return c.moved_logic; }));

        const obs::MetricRegistry& m = engine_rec.metrics();
        const double evaluated = m.value("realloc.candidates_evaluated_total");
        const double pruned = m.value("realloc.candidates_pruned_total");
        EXPECT_GT(pruned, 0.0);
        EXPECT_GT(evaluated, 0.0);
        EXPECT_EQ(evaluated + pruned,
                  oracle_rec.metrics().value("realloc.candidates_selectable_total"));
    }
}

// ------------------------------------------------- adjacency

TEST(ReallocateEngine, AdjacencyMatchesNaiveSetBuilders) {
    Scenario s;
    const PackedDesign& packed = s.placement.design();

    for (std::uint32_t si = 0; si < packed.slice_count(); ++si) {
        const SliceId slice{si};
        std::set<NetId> expected;
        const PackedSlice& ps = packed.slices()[si];
        auto add_cell = [&](CellId cell) {
            const auto inputs = s.d.nl.inputs(cell);
            const auto outputs = s.d.nl.outputs(cell);
            std::vector<NetId> pins(inputs.begin(), inputs.end());
            pins.insert(pins.end(), outputs.begin(), outputs.end());
            pins.push_back(s.d.nl.cell(cell).clock);
            for (const NetId net : pins)
                if (net.valid() && !s.placement.dedicated_net(net)) expected.insert(net);
        };
        for (const CellId cell : ps.luts) add_cell(cell);
        for (const CellId cell : ps.ffs) add_cell(cell);

        const auto got = slice_nets(s.placement, slice);
        ASSERT_EQ(got.size(), expected.size()) << "slice " << si;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()));
    }

    for (std::uint32_t ni = 0; ni < s.d.nl.net_count(); ++ni) {
        const NetId net{ni};
        std::set<SliceId> expected;
        const netlist::Net& n = s.d.nl.net(net);
        std::vector<CellId> cells;
        if (n.driven()) cells.push_back(n.driver.cell);
        for (const netlist::PinRef& sink : s.d.nl.sinks(net)) cells.push_back(sink.cell);
        for (const CellId cell : cells) {
            const SliceId slice = cell.valid() ? packed.slice_of(cell) : SliceId{};
            if (slice.valid()) expected.insert(slice);
        }
        const auto got = net_slices(s.placement, net);
        ASSERT_EQ(got.size(), expected.size()) << "net " << ni;
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()));
    }
}

// ------------------------------------------------- power cache

TEST(ReallocateEngine, PowerCacheTracksReroutes) {
    Scenario s;
    const double vdd = 1.2;
    NetPowerCache cache(s.routed, s.activity, vdd);

    double fresh_total = 0.0;
    for (std::uint32_t ni = 0; ni < s.d.nl.net_count(); ++ni) {
        const NetId net{ni};
        const double fresh = net_power_uw(s.routed, net, s.activity, vdd);
        EXPECT_DOUBLE_EQ(cache.net_uw(net), fresh);
        fresh_total += fresh;
    }
    EXPECT_DOUBLE_EQ(cache.exact_total_uw(), fresh_total);

    // Re-route every non-dedicated net on low-power wires; refresh must keep
    // the cache exact, and the maintained total must track the exact one.
    for (std::uint32_t ni = 0; ni < s.d.nl.net_count(); ++ni) {
        const NetId net{ni};
        if (s.placement.dedicated_net(net) || !s.d.nl.net(net).driven()) continue;
        s.routed.reroute_net(net, RouteMode::LowPower);
        cache.refresh(net);
        EXPECT_DOUBLE_EQ(cache.net_uw(net),
                         net_power_uw(s.routed, net, s.activity, vdd));
    }
    EXPECT_NEAR(cache.total_uw(), cache.exact_total_uw(),
                1e-9 * std::max(1.0, cache.exact_total_uw()));
}

// ------------------------------------------------- trial routing

TEST(ReallocateEngine, TrialRouteMatchesLiveRoute) {
    Scenario s;
    RouteScratch scratch;
    int checked = 0;
    for (std::uint32_t ni = 0; ni < s.d.nl.net_count() && checked < 8; ++ni) {
        const NetId net{ni};
        if (s.placement.dedicated_net(net) || !s.d.nl.net(net).driven()) continue;
        const SliceId slice = s.placement.design().slice_of(s.d.nl.net(net).driver.cell);
        if (!slice.valid()) continue;

        // Trial-cost the net "as if" its driver slice sat where it already
        // sits, against the same base occupancy a live re-route would see.
        s.routed.unroute_net(net);
        scratch.clear();
        const double trial = s.routed.trial_route_capacitance_pf(
            net, slice, s.placement.slice_pos(slice), RouteMode::LowPower, scratch);
        scratch.clear();
        s.routed.reroute_net(net, RouteMode::LowPower);
        EXPECT_DOUBLE_EQ(s.routed.route(net).capacitance_pf(), trial)
            << "net " << ni;
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

// ------------------------------------------------- capacity contract

TEST(ReallocateEngine, ChannelCapacityRejectsOutOfEnumWireType) {
    const ChannelCapacity capacity;
    EXPECT_THROW((void)capacity.of(static_cast<fabric::WireType>(99)),
                 ContractViolation);
}

}  // namespace
}  // namespace refpga::par
