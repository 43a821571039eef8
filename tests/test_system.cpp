// Integration tests: the whole measurement system, end to end.
#include <gtest/gtest.h>

#include "refpga/app/system.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/netlist/drc.hpp"
#include "refpga/netlist/stats.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placement.hpp"
#include "refpga/par/router.hpp"
#include "refpga/power/estimator.hpp"
#include "refpga/reconfig/busmacro.hpp"
#include "refpga/sim/simulator.hpp"

namespace refpga::app {
namespace {

SystemOptions options_for(SystemVariant variant) {
    SystemOptions options;
    options.variant = variant;
    return options;
}

class LevelAccuracy
    : public ::testing::TestWithParam<std::tuple<SystemVariant, double>> {};

// The core promise of the application: measured level tracks the true level,
// in every implementation variant.
TEST_P(LevelAccuracy, MeasuredLevelTracksTruth) {
    const auto [variant, level] = GetParam();
    MeasurementSystem system(options_for(variant));
    system.set_true_level(level);
    CycleReport report;
    // Let the EMA converge.
    const int cycles = variant == SystemVariant::Software ? 4 : 24;
    for (int i = 0; i < cycles; ++i) report = system.run_cycle();
    EXPECT_NEAR(report.level, level, 0.06)
        << variant_name(variant) << " at level " << level;
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndLevels, LevelAccuracy,
    ::testing::Combine(::testing::Values(SystemVariant::Software,
                                         SystemVariant::MonolithicHw,
                                         SystemVariant::ReconfiguredHw),
                       ::testing::Values(0.2, 0.5, 0.8)));

TEST(SystemParams, DefaultsValidate) {
    EXPECT_NO_THROW(AppParams{}.validate());
    EXPECT_NO_THROW(MeasurementSystem(SystemOptions{}));
}

// Parameters the pipeline cannot honour: each used to run without error and
// read a wrong level (window, bin) or silently ignore the field (signal_hz,
// modulator_hz). The system now refuses them before building any table.
TEST(SystemParams, RejectsParametersThePipelineWouldIgnore) {
    const auto reject = [](auto mutate) {
        SystemOptions options;
        mutate(options.params);
        EXPECT_THROW(options.params.validate(), ContractViolation);
        EXPECT_THROW(MeasurementSystem{options}, ContractViolation);
    };
    reject([](AppParams& p) { p.window = 200; });          // not a power of two
    reject([](AppParams& p) { p.bin = 41; });              // off the excitation
    reject([](AppParams& p) { p.signal_hz = 250e3; });     // LUT plays 500 kHz
    reject([](AppParams& p) { p.modulator_hz = 8e6; });    // LUT plays 250 kHz
    reject([](AppParams& p) { p.table_bits = 19; });
    reject([](AppParams& p) { p.cos_table_bits = 1; });
    reject([](AppParams& p) { p.cordic_stages = 0; });
    reject([](AppParams& p) { p.cordic_stages = 25; });
    reject([](AppParams& p) { p.angle_bits = 7; });
}

TEST(System, HwAndReconfigVariantsAgreeExactly) {
    // Reconfiguration changes *when* modules exist, not what they compute.
    MeasurementSystem mono(options_for(SystemVariant::MonolithicHw));
    MeasurementSystem reconf(options_for(SystemVariant::ReconfiguredHw));
    mono.set_true_level(0.6);
    reconf.set_true_level(0.6);
    for (int i = 0; i < 5; ++i) {
        const CycleReport a = mono.run_cycle();
        const CycleReport b = reconf.run_cycle();
        EXPECT_EQ(a.result.level.level_q15, b.result.level.level_q15) << i;
        EXPECT_EQ(a.result.cap.cap_pf_q4, b.result.cap.cap_pf_q4) << i;
    }
}

TEST(System, SoftwareProcessingIsOrdersOfMagnitudeSlower) {
    MeasurementSystem sw(options_for(SystemVariant::Software));
    MeasurementSystem hw(options_for(SystemVariant::MonolithicHw));
    sw.set_true_level(0.5);
    hw.set_true_level(0.5);
    const CycleReport sw_report = sw.run_cycle();
    const CycleReport hw_report = hw.run_cycle();
    // §4.2: ~7 ms vs ~7 us, "approximately a factor 1000".
    EXPECT_GT(sw_report.processing_s / hw_report.processing_s, 200.0);
    EXPECT_LT(sw_report.processing_s / hw_report.processing_s, 5000.0);
}

TEST(System, ReconfigOverheadAccountedPerCycle) {
    MeasurementSystem system(options_for(SystemVariant::ReconfiguredHw));
    system.set_true_level(0.5);
    const CycleReport first = system.run_cycle();
    // Three module loads in the first cycle.
    EXPECT_GT(first.reconfig_s, 0.0);
    EXPECT_EQ(system.controller().load_count(), 3);
    const CycleReport second = system.run_cycle();
    // Modules still swap every cycle (slot is shared).
    EXPECT_GT(second.reconfig_s, 0.0);
}

TEST(System, CycleFitsSchedulePeriod) {
    // Fig. 4: everything (sampling + reconfig + processing) fits in the
    // 100 ms measurement period, even over the slow JCAP.
    MeasurementSystem system(options_for(SystemVariant::ReconfiguredHw));
    system.set_true_level(0.5);
    const CycleReport report = system.run_cycle();
    EXPECT_LT(report.busy_s(), system.options().params.cycle_period_s);
    EXPECT_FALSE(report.phases.empty());
    // Phases are contiguous and ordered.
    double t = 0.0;
    for (const CyclePhase& phase : report.phases) {
        EXPECT_NEAR(phase.start_s, t, 1e-12) << phase.name;
        t += phase.duration_s;
    }
}

TEST(System, MonolithicHasNoReconfigPhases) {
    MeasurementSystem system(options_for(SystemVariant::MonolithicHw));
    system.set_true_level(0.4);
    const CycleReport report = system.run_cycle();
    EXPECT_EQ(report.reconfig_s, 0.0);
    for (const CyclePhase& phase : report.phases)
        EXPECT_EQ(phase.name.find("reconfig"), std::string::npos);
}

TEST(System, TracksLevelChangesOverTime) {
    MeasurementSystem system(options_for(SystemVariant::MonolithicHw));
    system.set_true_level(0.3);
    for (int i = 0; i < 24; ++i) (void)system.run_cycle();
    const double low = system.run_cycle().level;
    system.set_true_level(0.7);
    for (int i = 0; i < 24; ++i) (void)system.run_cycle();
    const double high = system.run_cycle().level;
    EXPECT_GT(high, low + 0.25);
}

// ---------------------------------------------------------------- netlist-level

TEST(SystemNetlist, CleanDrcAndBoundaries) {
    const SystemNetlist sys = build_system_netlist({});
    EXPECT_TRUE(netlist::run_drc(sys.nl).empty());
    EXPECT_TRUE(reconfig::check_boundaries(sys.nl).empty());
}

TEST(SystemNetlist, PartitionShapeMatchesTableOne) {
    const SystemNetlist sys = build_system_netlist({});
    const auto stats = netlist::partition_stats(sys.nl);
    const auto slices = [&](netlist::PartitionId p) {
        return stats[p.value()].slices();
    };
    // Static area is the largest partition (MicroBlaze et al.); amp/phase is
    // the largest reconfigurable module; filter the smallest.
    EXPECT_GT(slices(sys.static_part), slices(sys.amp_part));
    EXPECT_GT(slices(sys.amp_part), slices(sys.cap_part));
    EXPECT_GT(slices(sys.cap_part), slices(sys.filt_part));
}

TEST(SystemNetlist, StaticPlusLargestModuleFitsXc3s400) {
    // The paper's device-fit claim for the reconfigured system.
    const SystemNetlist sys = build_system_netlist({});
    const auto stats = netlist::partition_stats(sys.nl);
    const auto resident = stats[sys.static_part.value()].slices() +
                          stats[sys.amp_part.value()].slices();
    EXPECT_LE(resident, 3584u);
}

TEST(SystemNetlist, SimulatesWithoutX) {
    // Smoke: the full netlist levelizes and ticks (values all defined).
    const SystemNetlist sys = build_system_netlist(
        {AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false});
    sim::Simulator s(sys.nl);
    s.set_input("tick_16mhz", 1);
    s.run(64);
    SUCCEED();
}

TEST(SystemNetlist, PlacesAndRoutesOnXc3s1000) {
    // End-to-end physical flow in the monolithic (all modules resident)
    // scenario, which is Table 1's setting: XC3S1000, Fig. 2-style floorplan
    // with the static area on the left and the module columns on the right.
    const SystemNetlist sys = build_system_netlist({});
    const par::PackedDesign packed = par::pack(sys.nl);
    const fabric::Device dev(fabric::PartName::XC3S1000);
    par::Placement placement(dev, sys.nl, packed);
    const int split = dev.cols() / 2;
    placement.constrain(sys.static_part, {0, split, 0, dev.rows()});
    placement.constrain(sys.amp_part, {split, dev.cols(), 0, dev.rows()});
    placement.place_initial();
    par::RoutedDesign routed(placement, {});
    routed.route_all(par::RouteMode::Performance);
    EXPECT_GT(routed.total_capacitance_pf(), 0.0);
}

}  // namespace
}  // namespace refpga::app
