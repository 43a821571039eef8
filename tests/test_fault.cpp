// Fault-injection layer and the self-healing pipeline built on it:
// deterministic fault plans, hardened controller loads (verify/retry/fail),
// scrub-based detect -> repair -> recover, plausibility guard, software
// fallback, and availability accounting end to end through refpga::fleet.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "refpga/app/system.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/fabric/device.hpp"
#include "refpga/fault/fault.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/reconfig/controller.hpp"
#include "refpga/reconfig/scrubber.hpp"

using namespace refpga;
using app::MeasurementSystem;
using app::SystemOptions;
using app::SystemVariant;

namespace {

fault::FaultSpec armed_but_quiet() {
    // Arms the self-healing machinery (verify + guard) without scheduling
    // any fault in a realistic test horizon.
    fault::FaultSpec spec;
    spec.glitch_prob_per_cycle = 1e-12;
    return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, IsDeterministic) {
    fault::FaultSpec spec;
    spec.upset_rate_per_column_s = 0.3;
    spec.load_corruption_prob = 0.2;
    spec.flash_error_prob = 0.1;
    spec.glitch_prob_per_cycle = 0.5;

    fault::FaultPlan a(spec, 28, 42);
    fault::FaultPlan b(spec, 28, 42);
    const auto ua = a.upsets_until(5.0);
    const auto ub = b.upsets_until(5.0);
    ASSERT_EQ(ua.size(), ub.size());
    for (std::size_t i = 0; i < ua.size(); ++i) {
        EXPECT_DOUBLE_EQ(ua[i].at_s, ub[i].at_s);
        EXPECT_EQ(ua[i].column, ub[i].column);
    }
    for (int i = 0; i < 16; ++i) {
        const fault::LoadFault fa = a.next_load_fault();
        const fault::LoadFault fb = b.next_load_fault();
        EXPECT_EQ(fa.flash_error, fb.flash_error);
        EXPECT_EQ(fa.corrupt_transfer, fb.corrupt_transfer);
        const fault::Glitch ga = a.next_glitch();
        const fault::Glitch gb = b.next_glitch();
        EXPECT_EQ(ga.kind, gb.kind);
        EXPECT_EQ(ga.on_reference, gb.on_reference);
    }
}

TEST(FaultPlan, ZeroSpecInjectsNothing) {
    fault::FaultPlan plan(fault::FaultSpec{}, 28, 7);
    EXPECT_FALSE(fault::FaultSpec{}.any());
    EXPECT_TRUE(plan.upsets_until(1e9).empty());
    const fault::LoadFault load = plan.next_load_fault();
    EXPECT_FALSE(load.any());
    EXPECT_EQ(plan.next_glitch().kind, fault::GlitchKind::None);
}

TEST(FaultPlan, RejectsNonFiniteUpsetRate) {
    // An infinite rate would append upsets at t += 0 until memory runs out;
    // the constructor must refuse it before any schedule is drawn.
    for (const double rate : {HUGE_VAL, std::nan(""), -1.0}) {
        fault::FaultSpec spec;
        spec.upset_rate_per_column_s = rate;
        EXPECT_THROW(fault::FaultPlan(spec, 28, 7), ContractViolation) << rate;
    }
}

TEST(FaultPlan, UpsetTimesAscendAndColumnsStayInRange) {
    fault::FaultSpec spec;
    spec.upset_rate_per_column_s = 1.0;
    fault::FaultPlan plan(spec, 12, 99);
    double last = 0.0;
    // Incremental queries must see every event exactly once, in order.
    std::size_t total = 0;
    for (int window = 1; window <= 10; ++window) {
        for (const fault::UpsetEvent& u : plan.upsets_until(window * 1.0)) {
            EXPECT_GE(u.at_s, last);
            EXPECT_LT(u.at_s, window * 1.0);
            EXPECT_GE(u.column, 0);
            EXPECT_LT(u.column, 12);
            last = u.at_s;
            ++total;
        }
    }
    // lambda = 12 upsets/s over 10 s: expect ~120, loosely bounded.
    EXPECT_GT(total, 60u);
    EXPECT_LT(total, 240u);
}

// ---------------------------------------------------------------------------
// Hardened controller loads
// ---------------------------------------------------------------------------

namespace {

struct ControllerRig {
    fabric::Device dev{fabric::PartName::XC3S400};
    reconfig::ConfigMemory memory{dev};
    reconfig::ReconfigController ctrl{dev, reconfig::icap_port()};

    explicit ControllerRig(reconfig::LoadPolicy policy = {}) {
        ctrl.set_load_policy(policy);
        ctrl.attach_memory(&memory);
        ctrl.add_slot("slot0", {20, 28, 0, dev.rows()});
        ctrl.register_module("slot0", "amp_phase");
        ctrl.register_module("slot0", "capacity");
    }
};

}  // namespace

TEST(HardenedLoad, VerifyRetryRecoversFromCorruptTransfer) {
    ControllerRig rig({.verify_after_write = true, .max_retries = 2});
    int calls = 0;
    rig.ctrl.set_load_fault_hook([&](const std::string&, const std::string&, int) {
        ++calls;
        fault::LoadFault f;
        f.corrupt_transfer = (calls == 1);  // only the first attempt corrupts
        return f;
    });

    const reconfig::ReconfigEvent ev = rig.ctrl.load("slot0", "amp_phase");
    EXPECT_EQ(ev.attempts, 2);
    EXPECT_FALSE(ev.failed);
    EXPECT_GT(ev.verify_s, 0.0);
    EXPECT_EQ(rig.ctrl.slot_health("slot0"), reconfig::SlotHealth::Healthy);
    EXPECT_EQ(rig.ctrl.resident_module("slot0"), "amp_phase");
    EXPECT_EQ(rig.ctrl.retry_count(), 1);
    // The memory landed clean: the retry was verified.
    EXPECT_EQ(rig.memory.corrupted_count(), 0);

    // Both attempts and both verifies are charged to the ledger.
    ControllerRig clean({.verify_after_write = true, .max_retries = 2});
    const reconfig::ReconfigEvent ref = clean.ctrl.load("slot0", "amp_phase");
    EXPECT_EQ(ref.attempts, 1);
    EXPECT_NEAR(ev.time_s, 2.0 * ref.time_s, 1e-12);
    EXPECT_NEAR(ev.energy_mj, 2.0 * ref.energy_mj, 1e-9);
}

TEST(HardenedLoad, ExhaustedRetryBudgetFailsSlotThenRecovers) {
    ControllerRig rig({.verify_after_write = true, .max_retries = 1});
    bool faulty = true;
    rig.ctrl.set_load_fault_hook([&](const std::string&, const std::string&, int) {
        fault::LoadFault f;
        f.flash_error = faulty;
        return f;
    });

    const reconfig::ReconfigEvent ev = rig.ctrl.load("slot0", "amp_phase");
    EXPECT_TRUE(ev.failed);
    EXPECT_EQ(ev.attempts, 2);  // first attempt + one retry
    EXPECT_GT(ev.time_s, 0.0);  // failed attempts still cost transfer time
    EXPECT_EQ(rig.ctrl.slot_health("slot0"), reconfig::SlotHealth::Failed);
    EXPECT_TRUE(rig.ctrl.resident_module("slot0").empty());
    EXPECT_EQ(rig.ctrl.failed_load_count(), 1);

    // The flash recovers; the next request reloads from scratch.
    faulty = false;
    const reconfig::ReconfigEvent again = rig.ctrl.load("slot0", "amp_phase");
    EXPECT_FALSE(again.failed);
    EXPECT_FALSE(again.skipped);
    EXPECT_EQ(rig.ctrl.slot_health("slot0"), reconfig::SlotHealth::Healthy);
    EXPECT_EQ(rig.ctrl.resident_module("slot0"), "amp_phase");
}

TEST(HardenedLoad, SkippedLoadsAccrueNothingRetriesAccrue) {
    ControllerRig rig({.verify_after_write = true, .max_retries = 2});
    const reconfig::ReconfigEvent first = rig.ctrl.load("slot0", "amp_phase");
    const double time_after_first = rig.ctrl.total_time_s();
    const double energy_after_first = rig.ctrl.total_energy_mj();

    // Re-requesting the resident module is free and changes no totals.
    const reconfig::ReconfigEvent skipped = rig.ctrl.load("slot0", "amp_phase");
    EXPECT_TRUE(skipped.skipped);
    EXPECT_EQ(skipped.attempts, 0);
    EXPECT_DOUBLE_EQ(skipped.time_s, 0.0);
    EXPECT_DOUBLE_EQ(skipped.energy_mj, 0.0);
    EXPECT_DOUBLE_EQ(rig.ctrl.total_time_s(), time_after_first);
    EXPECT_DOUBLE_EQ(rig.ctrl.total_energy_mj(), energy_after_first);

    // A retried load accrues strictly more than a clean one.
    int calls = 0;
    rig.ctrl.set_load_fault_hook([&](const std::string&, const std::string&, int) {
        fault::LoadFault f;
        f.corrupt_transfer = (++calls == 1);
        return f;
    });
    const reconfig::ReconfigEvent retried = rig.ctrl.load("slot0", "capacity");
    EXPECT_EQ(retried.attempts, 2);
    EXPECT_GT(retried.time_s, first.time_s);
    EXPECT_GT(retried.energy_mj, first.energy_mj);
    EXPECT_DOUBLE_EQ(rig.ctrl.total_time_s(), time_after_first + retried.time_s);
}

TEST(HardenedLoad, UnverifiedCorruptLandingIsCaughtByScrubber) {
    // Without verify-after-write a corrupted transfer goes unnoticed by the
    // controller — readback scrubbing is the safety net.
    ControllerRig rig({.verify_after_write = false, .max_retries = 0});
    rig.ctrl.set_load_fault_hook([](const std::string&, const std::string&, int) {
        fault::LoadFault f;
        f.corrupt_transfer = true;
        return f;
    });
    const reconfig::ReconfigEvent ev = rig.ctrl.load("slot0", "amp_phase");
    EXPECT_FALSE(ev.failed);  // nobody noticed
    EXPECT_EQ(rig.ctrl.slot_health("slot0"), reconfig::SlotHealth::Healthy);
    EXPECT_GT(rig.memory.corrupted_count(), 0);

    reconfig::Scrubber scrubber(rig.memory, reconfig::icap_port());
    const reconfig::ScrubReport scrub = scrubber.scan(0, rig.dev.cols());
    EXPECT_EQ(scrub.upsets_detected, 8);  // all eight slot columns landed wrong
    EXPECT_EQ(scrub.columns_repaired, 8);
    EXPECT_EQ(rig.memory.corrupted_count(), 0);
}

// ---------------------------------------------------------------------------
// Self-healing measurement system
// ---------------------------------------------------------------------------

TEST(SelfHealingSystem, DetectsRepairsAndRecoversFromUpsets) {
    SystemOptions options;
    options.variant = SystemVariant::ReconfiguredHw;
    options.port = reconfig::icap_port();  // full-device scrub pass per cycle
    options.fault.upset_rate_per_column_s = 0.5;
    MeasurementSystem system(options, 1234);
    system.set_true_level(0.5);

    bool saw_detect = false;
    bool saw_recovery_after_repair = false;
    bool repaired_before = false;
    for (int i = 0; i < 40; ++i) {
        const app::CycleReport report = system.run_cycle();
        if (report.upsets_detected > 0) saw_detect = true;
        if (repaired_before && !report.fabric_corrupted)
            saw_recovery_after_repair = true;
        if (report.columns_repaired > 0) repaired_before = true;
    }

    const fault::FaultStats& stats = system.fault_stats();
    EXPECT_GT(stats.upsets_injected, 0);
    EXPECT_GT(stats.upsets_detected, 0);
    EXPECT_GT(stats.columns_repaired, 0);
    EXPECT_TRUE(saw_detect);
    // The full detect -> repair -> recover sequence: after a repair, a later
    // cycle ran on clean fabric again.
    EXPECT_TRUE(saw_recovery_after_repair);
    EXPECT_GT(stats.mean_time_to_detect_s(), 0.0);
    EXPECT_GE(stats.mean_time_to_repair_s(), stats.mean_time_to_detect_s());
    EXPECT_LT(stats.availability(), 1.0);
    EXPECT_GT(stats.availability(), 0.0);
}

TEST(SelfHealingSystem, ScrubPhasesLandInTheIdleWindow) {
    SystemOptions options;
    options.variant = SystemVariant::ReconfiguredHw;  // clean run, scrub always on
    MeasurementSystem system(options, 7);
    system.set_true_level(0.4);
    const app::CycleReport report = system.run_cycle();

    bool has_scrub_phase = false;
    double t = 0.0;
    for (const app::CyclePhase& phase : report.phases) {
        EXPECT_NEAR(phase.start_s, t, 1e-12);  // schedule stays contiguous
        t += phase.duration_s;
        if (phase.name.find("scrub") != std::string::npos) has_scrub_phase = true;
    }
    EXPECT_TRUE(has_scrub_phase);
    EXPECT_GT(report.scrub_s, 0.0);
    // The donated idle share keeps the cycle inside the Fig. 4 period.
    EXPECT_LT(report.busy_s(), options.params.cycle_period_s);
}

TEST(SelfHealingSystem, CleanFaultLayerDoesNotPerturbResults) {
    SystemOptions options;
    options.variant = SystemVariant::ReconfiguredHw;
    MeasurementSystem baseline(options, 99);
    MeasurementSystem with_layer(options, 99);  // same all-zero spec
    for (int i = 0; i < 4; ++i) {
        baseline.set_true_level(0.3 + 0.1 * i);
        with_layer.set_true_level(0.3 + 0.1 * i);
        const app::CycleReport a = baseline.run_cycle();
        const app::CycleReport b = with_layer.run_cycle();
        EXPECT_EQ(a.result.level.level_q15, b.result.level.level_q15);
        EXPECT_EQ(a.result.cap.cap_pf_q4, b.result.cap.cap_pf_q4);
    }
    EXPECT_EQ(baseline.fault_stats().degraded_cycles, 0);
}

TEST(SelfHealingSystem, GlitchesTripThePlausibilityGuard) {
    SystemOptions options;
    options.variant = SystemVariant::MonolithicHw;
    options.fault.glitch_prob_per_cycle = 1.0;
    MeasurementSystem system(options, 5);
    system.set_true_level(0.5);
    for (int i = 0; i < 12; ++i) (void)system.run_cycle();

    const fault::FaultStats& stats = system.fault_stats();
    EXPECT_EQ(stats.glitches_injected, 12);
    EXPECT_GT(stats.rejected_cycles, 0);
    EXPECT_LT(stats.availability(), 1.0);
}

TEST(SelfHealingSystem, GuardYieldsToARealStepChange) {
    SystemOptions options;
    options.variant = SystemVariant::MonolithicHw;
    options.fault = armed_but_quiet();
    MeasurementSystem system(options, 3);

    system.set_true_level(0.2);
    for (int i = 0; i < 6; ++i) (void)system.run_cycle();
    EXPECT_EQ(system.fault_stats().rejected_cycles, 0);

    // A real step change looks implausible at first; after the guard's
    // patience of two consecutive rejections it accepts the new plateau.
    system.set_true_level(0.8);
    for (int i = 0; i < 10; ++i) (void)system.run_cycle();
    EXPECT_EQ(system.fault_stats().rejected_cycles, 2);
    const app::CycleReport report = system.run_cycle();
    EXPECT_NEAR(static_cast<double>(report.result.cap.cap_pf_q4) / 16.0,
                options.params.c_empty_pf +
                    0.8 * (options.params.c_full_pf - options.params.c_empty_pf),
                30.0);
}

TEST(SelfHealingSystem, FailedSlotFallsBackToResidentSoftwarePath) {
    SystemOptions options;
    options.variant = SystemVariant::ReconfiguredHw;
    options.port = reconfig::icap_port();
    options.fault.flash_error_prob = 1.0;  // every fetch fails its CRC
    options.load_max_retries = 1;
    MeasurementSystem system(options, 11);
    system.set_true_level(0.6);

    const app::CycleReport report = system.run_cycle();
    EXPECT_TRUE(report.fallback);
    bool has_fallback_phase = false;
    for (const app::CyclePhase& phase : report.phases)
        if (phase.name.find("fallback") != std::string::npos) has_fallback_phase = true;
    EXPECT_TRUE(has_fallback_phase);
    // The cycle still delivers a plausible measurement via the software path.
    EXPECT_NEAR(report.capacitance_pf,
                options.params.c_empty_pf +
                    0.6 * (options.params.c_full_pf - options.params.c_empty_pf),
                40.0);

    for (int i = 0; i < 3; ++i) (void)system.run_cycle();
    const fault::FaultStats& stats = system.fault_stats();
    EXPECT_EQ(stats.fallback_cycles, 4);
    EXPECT_GT(stats.load_failures, 0);
    EXPECT_GT(stats.load_retries, 0);
    EXPECT_LT(stats.availability(), 1.0);
    EXPECT_EQ(system.controller().slot_health("slot0"),
              reconfig::SlotHealth::Failed);
}

// ---------------------------------------------------------------------------
// Fleet integration
// ---------------------------------------------------------------------------

namespace {

std::vector<fleet::Scenario> fault_sweep(int cycles) {
    fault::FaultSpec defaults;
    defaults.load_corruption_prob = 0.1;
    defaults.glitch_prob_per_cycle = 0.2;
    return fleet::SweepBuilder{}
        .variants({SystemVariant::MonolithicHw, SystemVariant::ReconfiguredHw})
        .ports({fleet::PortKind::Icap, fleet::PortKind::JcapAccelerated})
        .upset_rates({0.0, 0.2})
        .fault_defaults(defaults)
        .cycles(cycles)
        .campaign_seed(77)
        .build();
}

}  // namespace

TEST(FaultCampaign, ByteIdenticalAcrossThreadCounts) {
    const std::vector<fleet::Scenario> sweep = fault_sweep(6);
    std::string reference;
    for (const int threads : {1, 4, 8}) {
        const fleet::CampaignResult result =
            fleet::CampaignRunner(threads).run(sweep);
        const std::string json = fleet::CampaignReport::from(result).render_json();
        if (reference.empty())
            reference = json;
        else
            EXPECT_EQ(json, reference) << "threads=" << threads;
    }
    EXPECT_NE(reference.find("\"upset_rate\""), std::string::npos);
}

TEST(FaultCampaign, NonzeroUpsetRateDegradesAvailability) {
    const std::vector<fleet::Scenario> sweep = fault_sweep(10);
    const fleet::CampaignResult result =
        fleet::CampaignRunner(4).run(sweep);
    ASSERT_EQ(result.failure_count(), 0u);

    bool some_degraded = false;
    for (const fleet::ScenarioOutcome& o : result.outcomes) {
        EXPECT_GE(o.availability, 0.0);
        EXPECT_LE(o.availability, 1.0);
        if (o.scenario.fault.upset_rate_per_column_s > 0.0) {
            EXPECT_GT(o.upsets_injected, 0) << o.scenario.name;
            if (o.availability < 1.0) some_degraded = true;
        }
        EXPECT_GT(o.scrub_ms_per_cycle, 0.0) << o.scenario.name;
    }
    EXPECT_TRUE(some_degraded);

    // Availability and the fault tallies surface in both renderings.
    const fleet::CampaignReport report = fleet::CampaignReport::from(result);
    EXPECT_NE(report.render_text().find("avail"), std::string::npos);
    EXPECT_NE(report.render_json().find("\"availability\""), std::string::npos);
    EXPECT_NE(report.render_json().find("\"mttd_ms\""), std::string::npos);
}
