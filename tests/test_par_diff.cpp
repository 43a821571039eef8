// Differential tests for the §4.3 back end's incremental hot loops.
//
// The library's incremental bounding-box annealer and levelized timing
// analysis must reproduce the test-support oracles (`anneal_reference`,
// `analyze_timing_reference`) bit for bit: the same slice positions and
// PlacerResult, and the same `critical_path_ps` compared with ==, never a
// tolerance. The critical path the library reports must also be a real
// path: launch cell, combinational cells, endpoint, with delays that sum to
// the reported figure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/placer_reference.hpp"
#include "refpga/par/router.hpp"
#include "refpga/par/timing.hpp"
#include "refpga/par/timing_reference.hpp"
#include "refpga/sim/random_netlist.hpp"

namespace refpga::par {
namespace {

using fabric::Device;
using fabric::PartName;
using fabric::Region;
using netlist::Builder;
using netlist::Bus;
using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::Netlist;
using netlist::NetId;
using netlist::PinRef;

constexpr double kClockHz = 50e6;
/// Anneal effort on the hardware core: about 27k moves per run, enough to
/// cross every temperature step and keep the suite quick under sanitizers.
constexpr double kCoreEffort = 0.02;

/// A netlist packed and initially placed on a device; `constrain` runs
/// before the initial placement.
struct Placed {
    PackedDesign packed;
    Device dev;
    Placement placement;

    template <typename Constrain>
    Placed(const Netlist& nl, PartName part, Constrain constrain)
        : packed(pack(nl)), dev(part), placement(dev, nl, packed) {
        constrain(placement);
        placement.place_initial();
    }
    Placed(const Netlist& nl, PartName part) : Placed(nl, part, [](Placement&) {}) {}
};

/// Anneals two identical initial placements, one with the library and one
/// with the oracle, and expects identical results and slice positions.
void expect_anneal_matches(const Placed& initial, const PlacerOptions& options,
                           const sim::ActivityMap* activity = nullptr) {
    Placement lib = initial.placement;
    Placement ref = initial.placement;
    const PlacerResult a = anneal(lib, options, activity);
    const PlacerResult b = anneal_reference(ref, options, activity);
    EXPECT_TRUE(a == b) << "moves " << a.moves_tried << "/" << b.moves_tried
                        << ", accepted " << a.moves_accepted << "/" << b.moves_accepted
                        << ", final cost " << a.final_cost << "/" << b.final_cost;
    std::size_t moved = 0;
    for (std::uint32_t i = 0; i < initial.packed.slice_count(); ++i) {
        const SliceId s{i};
        ASSERT_EQ(lib.slice_pos(s), ref.slice_pos(s)) << "slice " << i;
        if (!(lib.slice_pos(s) == initial.placement.slice_pos(s))) ++moved;
    }
    if (initial.packed.slice_count() >= 2) {
        EXPECT_GT(moved, 0u);
    }
}

app::SystemNetlist hardware_core() {
    return app::build_system_netlist(
        {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false});
}

// ---------------------------------------------------------------- anneal

TEST(AnnealDiff, MatchesReferenceAcrossSeeds) {
    const app::SystemNetlist sys = hardware_core();
    const Placed p(sys.nl, PartName::XC3S400);
    for (const std::uint64_t seed : {1u, 2008u, 7919u}) {
        SCOPED_TRACE(seed);
        PlacerOptions options;
        options.seed = seed;
        options.effort = kCoreEffort;
        expect_anneal_matches(p, options);
    }
}

TEST(AnnealDiff, MatchesReferenceWithActivityWeights) {
    const app::SystemNetlist sys = hardware_core();
    const sim::ActivityMap activity =
        app::system_activity(sys.nl, kClockHz, {.cycles = 64});
    const Placed p(sys.nl, PartName::XC3S400);
    for (const double beta : {0.0, 1.0}) {
        SCOPED_TRACE(beta);
        PlacerOptions options;
        options.seed = 5;
        options.effort = kCoreEffort;
        options.activity_beta = beta;
        expect_anneal_matches(p, options, &activity);
    }
}

TEST(AnnealDiff, MatchesReferenceOnRandomNetlists) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        const Netlist nl = sim::random_netlist(seed, {.luts = 120, .ffs = 40});
        const Placed p(nl, PartName::XC3S200);
        PlacerOptions options;
        options.seed = seed;
        options.effort = 0.5;
        expect_anneal_matches(p, options);
    }
}

TEST(AnnealDiff, MatchesReferenceWhenCrossPartitionSwapsAreRejected) {
    // The static area may use the whole die while the modules are confined
    // to the right half, so a static slice aimed at a module's site is
    // refused: the module's region does not contain the static slice's
    // source site.
    const app::SystemNetlist sys = hardware_core();
    const Placed p(sys.nl, PartName::XC3S1000, [&](Placement& placement) {
        const Device& dev = placement.device();
        const Region right{dev.cols() / 2, dev.cols(), 0, dev.rows()};
        placement.constrain(sys.amp_part, right);
        placement.constrain(sys.cap_part, right);
        placement.constrain(sys.filt_part, right);
    });
    const Region right{p.dev.cols() / 2, p.dev.cols(), 0, p.dev.rows()};
    int static_outside = 0;
    int module_slices = 0;
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i) {
        const auto pos = p.placement.slice_pos(SliceId{i});
        if (p.packed.slices()[i].partition != sys.static_part)
            ++module_slices;
        else if (!right.contains(pos.x, pos.y))
            ++static_outside;
    }
    ASSERT_GT(static_outside, 0);  // sources a module's region excludes
    ASSERT_GT(module_slices, 0);   // targets that refuse them

    PlacerOptions options;
    options.seed = 11;
    options.effort = kCoreEffort;
    expect_anneal_matches(p, options);

    Placement lib = p.placement;
    (void)anneal(lib, options);
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i) {
        if (p.packed.slices()[i].partition == sys.static_part) continue;
        const auto pos = lib.slice_pos(SliceId{i});
        EXPECT_TRUE(right.contains(pos.x, pos.y)) << "slice " << i;
    }
}

TEST(AnnealDiff, BoundDecidesMostMoves) {
    // Most moves are rejected by the bound pass alone, yet every decision
    // matches the oracle's exact costing; the moves it cannot reject are
    // evaluated in full, and only some of those are accepted.
    const app::SystemNetlist sys = hardware_core();
    const Placed p(sys.nl, PartName::XC3S400);
    obs::Recorder recorder;
    PlacerOptions options;
    options.seed = 2008;
    options.effort = kCoreEffort;
    options.recorder = &recorder;
    expect_anneal_matches(p, options);

    const obs::MetricRegistry& m = recorder.metrics();
    const double tried = m.value("anneal.moves_tried_total");
    const double evaluated = m.value("anneal.moves_evaluated_total");
    const double bound_rejected = m.value("anneal.moves_bound_rejected_total");
    const double accepted = m.value("anneal.moves_accepted_total");
    const double steps = m.value("anneal.temperature_steps_total");
    EXPECT_LE(evaluated, tried);
    EXPECT_GE(bound_rejected, 0.9 * tried);
    EXPECT_GT(evaluated - bound_rejected, accepted);  // full evaluations
    EXPECT_GT(accepted, 0.0);
    ASSERT_GT(steps, 0.0);
    EXPECT_EQ(std::fmod(tried, steps), 0.0);  // the same moves at every step

    // A recorder changes nothing, and its counts are the PlacerResult's.
    Placement with = p.placement;
    Placement without = p.placement;
    const PlacerResult a = anneal(with, options);
    options.recorder = nullptr;
    const PlacerResult b = anneal(without, options);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(tried, static_cast<double>(a.moves_tried));
    EXPECT_EQ(accepted, static_cast<double>(a.moves_accepted));
    for (std::uint32_t i = 0; i < p.packed.slice_count(); ++i)
        ASSERT_EQ(with.slice_pos(SliceId{i}), without.slice_pos(SliceId{i})) << i;
}

TEST(AnnealDiff, MatchesReferenceOnSingleSliceAndSharedNets) {
    // The nets the bound pass treats apart, in a region small enough that
    // most moves swap two occupied sites:
    //  - LUT->FF nets inside one slice, with no fixed pin: the move lists
    //    leave them out;
    //  - one LUT->FF net inside one slice that also drives an output pad:
    //    its HPWL moves with its slice, so it must stay listed;
    //  - slices `x` and `y` joined by four nets, two on those slices alone
    //    and two from input pads that also reach other slices: swapping x
    //    and y keeps each such net's pin sites;
    //  - a net with 64 sinks over 32 slices.
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const Bus a = nl.add_input_port("a", 8);

    // x = {x0, x1}, y = {y0, y1}: the first two slices packed.
    const NetId x0 = b.and_(a[0], a[1]);
    const NetId x1 = b.xor_(a[2], a[3]);
    const NetId y0 = b.lut(0xE8, {x0, x1, a[0]});
    const NetId y1 = b.lut(0x96, {x0, x1, a[2]});
    const NetId y1_out = b.ff(b.or_(y1, a[7]));

    // LUT->FF pairs: each D net stays inside its slice.
    Bus regs;
    for (int i = 0; i < 8; ++i) regs.push_back(b.ff(b.xor_(a[i], a[(i + 3) % 8])));

    // An unpaired LUT and FF share a slice, and the LUT also drives a pad.
    const NetId padded = b.and_(regs[0], regs[1]);
    const NetId padded_q = b.ff(padded);
    nl.add_output_port("padded", Bus{padded});

    // A 64-sink net, reduced by an XOR tree into a register.
    const NetId hub = b.or_(y0, padded_q);
    Bus level;
    for (int i = 0; i < 64; ++i) level.push_back(b.xor_(hub, regs[i % 8]));
    while (level.size() > 1) {
        Bus next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2)
            next.push_back(b.xor_(level[i], level[i + 1]));
        level = next;
    }
    nl.add_output_port("q", Bus{b.ff(level[0]), y1_out});

    const Region region{2, 7, 3, 8};
    const Placed p(nl, PartName::XC3S200, [&](Placement& placement) {
        placement.constrain(netlist::PartitionId{0}, region);
    });
    const PackedDesign& packed = p.packed;
    const SliceId x = packed.slice_of(nl.net(x0).driver.cell);
    const SliceId y = packed.slice_of(nl.net(y0).driver.cell);
    ASSERT_EQ(packed.slice_of(nl.net(x1).driver.cell), x);
    ASSERT_EQ(packed.slice_of(nl.net(y1).driver.cell), y);
    ASSERT_NE(x, y);
    for (const NetId q : regs) {
        const CellId ff = nl.net(q).driver.cell;
        const NetId d = nl.inputs(ff)[0];
        ASSERT_EQ(nl.net(d).fanout(), 1u);
        ASSERT_EQ(packed.slice_of(nl.net(d).driver.cell), packed.slice_of(ff));
    }
    const CellId padded_ff = nl.net(padded_q).driver.cell;
    ASSERT_EQ(packed.slice_of(nl.net(padded).driver.cell), packed.slice_of(padded_ff));
    ASSERT_EQ(nl.net(padded).fanout(), 2u);
    ASSERT_EQ(nl.net(hub).fanout(), 64u);
    // Most of the region's sites are taken.
    ASSERT_GT(2 * packed.slice_count(), static_cast<std::size_t>(region.slice_capacity()));

    for (const std::uint64_t seed : {3u, 2008u}) {
        SCOPED_TRACE(seed);
        PlacerOptions options;
        options.seed = seed;
        options.effort = 2.0;
        expect_anneal_matches(p, options);
    }
}

TEST(AnnealDiff, OneSliceDesignKeepsItsPlace) {
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const Bus a = nl.add_input_port("a", 2);
    nl.add_output_port("q", Bus{b.ff(b.and_(a[0], a[1]))});
    const Placed p(nl, PartName::XC3S200);
    ASSERT_EQ(p.packed.slice_count(), 1u);
    expect_anneal_matches(p, PlacerOptions{});
    Placement lib = p.placement;
    const PlacerResult r = anneal(lib, PlacerOptions{});
    EXPECT_EQ(r.moves_tried, 0);
    EXPECT_EQ(r.final_cost, r.initial_cost);
}

// ---------------------------------------------------------------- timing

bool is_launch(CellKind k) {
    return k == CellKind::Ff || k == CellKind::Bram || k == CellKind::Inpad ||
           k == CellKind::Gnd || k == CellKind::Vcc;
}

bool is_endpoint(CellKind k) {
    return k == CellKind::Ff || k == CellKind::Bram || k == CellKind::Outpad;
}

/// Largest routed delay of any non-clock connection from `from` to `to`.
double wire_ps(const RoutedDesign& routed, CellId from, CellId to) {
    const Netlist& nl = routed.placement().nl();
    double worst = -1.0;
    for (const NetId out : nl.outputs(from)) {
        if (nl.net(out).is_clock) continue;
        const auto sinks = nl.sinks(out);
        for (std::size_t si = 0; si < sinks.size(); ++si) {
            if (sinks[si].cell != to) continue;
            double d = RoutedDesign::kPinDelayPs;
            for (const auto& s : routed.route(out).sinks)
                if (s.sink == sinks[si]) d = s.delay_ps;
            worst = std::max(worst, d);
        }
    }
    return worst;
}

/// The reported critical path is launch → combinational cells → endpoint,
/// and its cell and wire delays sum to `critical_path_ps` exactly.
void expect_path_shape(const RoutedDesign& routed, const TimingReport& report,
                       const CellDelays& delays = {}) {
    const Netlist& nl = routed.placement().nl();
    const auto& cells = report.critical_cells;
    ASSERT_GE(cells.size(), 2u);
    const Cell& first = nl.cell(cells.front());
    const Cell& last = nl.cell(cells.back());
    EXPECT_TRUE(is_launch(first.kind)) << netlist::cell_kind_name(first.kind);
    EXPECT_TRUE(is_endpoint(last.kind)) << netlist::cell_kind_name(last.kind);

    double t = first.kind == CellKind::Ff     ? delays.ff_clk_to_q_ps
               : first.kind == CellKind::Bram ? delays.bram_clk_to_q_ps
                                              : 0.0;
    for (std::size_t i = 1; i < cells.size(); ++i) {
        const double wire = wire_ps(routed, cells[i - 1], cells[i]);
        ASSERT_GE(wire, 0.0) << "no connection into path cell " << i;
        t += wire;
        const Cell& c = nl.cell(cells[i]);
        if (i + 1 == cells.size()) {
            if (c.kind == CellKind::Ff) t += delays.ff_setup_ps;
        } else {
            ASSERT_TRUE(c.kind == CellKind::Lut || c.kind == CellKind::Mult18)
                << "interior cell " << i << " is " << netlist::cell_kind_name(c.kind);
            t += c.kind == CellKind::Lut ? delays.lut_ps : delays.mult_ps;
        }
    }
    EXPECT_EQ(t, report.critical_path_ps);
}

TEST(TimingDiff, MatchesReferenceOnRandomNetlists) {
    int with_bram = 0;
    int with_mult = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        SCOPED_TRACE(seed);
        const Netlist nl = sim::random_netlist(seed);
        for (const Cell& c : nl.cells()) {
            with_bram += c.kind == CellKind::Bram;
            with_mult += c.kind == CellKind::Mult18;
        }
        Placed p(nl, PartName::XC3S200);
        PlacerOptions options;
        options.seed = seed;
        options.effort = 0.2;
        (void)anneal(p.placement, options);
        RoutedDesign routed(p.placement, {});
        routed.route_all(RouteMode::Performance);

        const TimingReport lib = analyze_timing(routed);
        const TimingReport ref = analyze_timing_reference(routed);
        EXPECT_EQ(lib.critical_path_ps, ref.critical_path_ps);
        expect_path_shape(routed, lib);
    }
    EXPECT_GT(with_bram, 0);
    EXPECT_GT(with_mult, 0);
}

TEST(TimingDiff, MatchesReferenceOnTable2Placement) {
    // The Table-2 flow: full system on the XC3S1000, annealed at the
    // benchmark's effort, routed for performance.
    const app::SystemNetlist sys = app::build_system_netlist({});
    Placed p(sys.nl, PartName::XC3S1000);
    PlacerOptions options;
    options.seed = 2008;
    options.effort = 0.05;
    (void)anneal(p.placement, options);
    RoutedDesign routed(p.placement, {});
    routed.route_all(RouteMode::Performance);

    const TimingReport lib = analyze_timing(routed);
    const TimingReport ref = analyze_timing_reference(routed);
    EXPECT_GT(lib.critical_path_ps, 0.0);
    EXPECT_EQ(lib.critical_path_ps, ref.critical_path_ps);
    expect_path_shape(routed, lib);
}

TEST(TimingDiff, PathStopsAtTheLaunchRegister) {
    // Two pipeline stages, the short one built first: ff0 -> 1 LUT -> ff1,
    // then ff1 -> 6 LUTs -> ff2. ff1 ends the short stage and launches the
    // long one; the critical path is the long stage alone.
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const Bus a = nl.add_input_port("a", 1);
    const NetId q0 = b.ff(a[0]);
    const NetId q1 = b.ff(b.not_(q0));
    NetId n = q1;
    for (int i = 0; i < 6; ++i) n = b.not_(n);
    const NetId q2 = b.ff(n);
    nl.add_output_port("o", Bus{q2});

    const Placed p(nl, PartName::XC3S200);
    RoutedDesign routed(p.placement, {});
    routed.route_all(RouteMode::Performance);
    const TimingReport lib = analyze_timing(routed);
    const TimingReport ref = analyze_timing_reference(routed);
    EXPECT_EQ(lib.critical_path_ps, ref.critical_path_ps);

    ASSERT_EQ(lib.critical_cells.size(), 8u);
    EXPECT_EQ(lib.critical_cells.front(), nl.net(q1).driver.cell);
    EXPECT_EQ(lib.critical_cells.back(), nl.net(q2).driver.cell);
    expect_path_shape(routed, lib);
}

TEST(TimingDiff, CombinationalLoopThrows) {
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const NetId q = b.ff(nl.add_input_port("a", 1)[0]);
    const NetId o = nl.add_lut(0x6, std::vector<NetId>{q, q}, "loop");
    nl.add_output_port("o", Bus{o});
    // Rewire the LUT's second input to its own output.
    const CellId lut = nl.net(o).driver.cell;
    nl.rewire(PinRef{lut, 1}, o);

    const Placed p(nl, PartName::XC3S200);
    RoutedDesign routed(p.placement, {});
    routed.route_all(RouteMode::Performance);
    EXPECT_THROW((void)analyze_timing(routed), ContractViolation);
}

}  // namespace
}  // namespace refpga::par
