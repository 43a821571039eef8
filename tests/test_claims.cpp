// The paper's relations as executable checks, one per DESIGN.md §4 row
// (ctest label `claims`).
//
// Each check computes its artifact once, prints the table the paper shows
// (EXPERIMENTS.md cites this output of build/tests/test_claims), and
// asserts the paper's relation against a threshold taken from the paper or
// from DESIGN.md, never from a value measured here.
//
// A relation that does not hold today is listed in kExpectedFailures with
// the reason and the ROADMAP item meant to fix it. Its check then asserts
// that the relation still fails, so the change that makes it hold fails
// this suite until it deletes the record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "refpga/analog/delta_sigma.hpp"
#include "refpga/analog/dsp.hpp"
#include "refpga/app/activity.hpp"
#include "refpga/app/hw_modules.hpp"
#include "refpga/app/software.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/common/table.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/netlist/stats.hpp"
#include "refpga/par/implementation.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/power/estimator.hpp"
#include "refpga/reconfig/busmacro.hpp"
#include "refpga/reconfig/config_port.hpp"
#include "refpga/reconfig/controller.hpp"
#include "refpga/reconfig/scrubber.hpp"
#include "refpga/sim/event_sim.hpp"

namespace refpga {
namespace {

struct ExpectedFailure {
    std::string_view relation;
    int roadmap_item;
    std::string_view reason;
};

constexpr ExpectedFailure kExpectedFailures[] = {
    {"T2: zero channel overflow", 2,
     "a connection whose channels are all full takes a Direct wire past capacity"},
    {"T2: slack >= 0 at the 50 MHz system clock", 3,
     "the capacity module's 28-stage divider is one unregistered combinational cone"},
    {"Ablation: every beta > 0 lowers hot-20 net power", 2,
     "beta = 0.5 reads above wirelength-only on routes that count shared wire per sink"},
    {"F4: a cycle over its budget is reported", 4,
     "the idle window is clamped to 0, so the cycle reads ok at full availability"},
    {"H4: campaign prices reconfigured XC3S400 below monolithic XC3S1000", 5,
     "the campaign charges clock tree and reconfiguration energy, never data-path switching"},
};

void print_header(const std::string& id, const std::string& title) {
    std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// Asserts that `relation` holds or, when kExpectedFailures lists it, that
/// it still fails; prints the verdict with what was measured.
void claim(std::string_view relation, bool holds, const std::string& measured) {
    const auto* expected =
        std::find_if(std::begin(kExpectedFailures), std::end(kExpectedFailures),
                     [&](const ExpectedFailure& e) { return e.relation == relation; });
    if (expected == std::end(kExpectedFailures)) {
        std::cout << "claim " << relation << ": " << (holds ? "holds" : "FAILS") << " ("
                  << measured << ")\n";
        EXPECT_TRUE(holds) << relation << ": " << measured;
        return;
    }
    std::cout << "claim " << relation << ": expected failure, ROADMAP item "
              << expected->roadmap_item << " (" << measured << "; " << expected->reason
              << ")\n";
    EXPECT_FALSE(holds) << relation << " now holds (" << measured
                        << "): delete its kExpectedFailures record (ROADMAP item "
                        << expected->roadmap_item << ")";
}

std::string part_id(const std::optional<fabric::PartName>& name) {
    return name ? std::string(fabric::part(*name).id) : "none";
}

/// Table 2's activity clock, the system clock every power number assumes.
constexpr double kClockHz = 50e6;
/// XC3S400 slices (DS099), the paper's reconfigured device.
constexpr std::size_t kXc3s400Slices = 3584;

// T1 (Table 1): static area > amplitude/phase > capacity > filter, and the
// static area plus the largest module fits the XC3S400.
TEST(Claims, T1ResourceUtilization) {
    print_header("Table 1", "resource utilization of the system (XC3S1000)");
    const app::SystemNetlist sys = app::build_system_netlist({});
    const auto stats = netlist::partition_stats(sys.nl);

    Table table({"partition", "slices", "LUTs", "FFs", "MULT18", "BRAM"});
    std::size_t total = 0;
    for (const auto& s : stats) {
        table.add_row({s.name == "static" ? "static (MicroBlaze, FSL, JCAP, UART, sinus gen)"
                                          : s.name,
                       std::to_string(s.slices()), std::to_string(s.luts),
                       std::to_string(s.ffs), std::to_string(s.mults),
                       std::to_string(s.brams)});
        total += s.slices();
    }
    std::cout << table.render();

    const auto slices = [&](netlist::PartitionId p) { return stats[p.value()].slices(); };
    const std::size_t st = slices(sys.static_part);
    const std::size_t amp = slices(sys.amp_part);
    const std::size_t cap = slices(sys.cap_part);
    const std::size_t filt = slices(sys.filt_part);
    const std::size_t resident = st + std::max({amp, cap, filt});
    std::cout << "total (all modules resident): " << total << " slices\n";
    std::cout << "smallest part for the monolithic system: "
              << part_id(fabric::smallest_fit(static_cast<int>(total), 0, 0)) << "\n";
    std::cout << "static + largest module (reconfigured system): " << resident
              << " slices -> "
              << part_id(fabric::smallest_fit(static_cast<int>(resident), 0, 0)) << "\n";

    claim("T1: static > amp_phase > capacity > filter",
          st > amp && amp > cap && cap > filt,
          std::to_string(st) + " > " + std::to_string(amp) + " > " + std::to_string(cap) +
              " > " + std::to_string(filt));
    claim("T1: static + largest module fits the XC3S400", resident <= kXc3s400Slices,
          std::to_string(resident) + " of " + std::to_string(kXc3s400Slices) + " slices");
}

// F2 and F5 (Figs. 2 and 5): every net that crosses a partition boundary
// passes a bus macro, and the Fig. 2 floorplan (static area left, the slot
// columns right) holds every slice inside its partition's columns.
TEST(Claims, F2F5PartitionAndFloorplan) {
    print_header("Figure 2", "static/dynamic partitioning and bus macros");
    const app::SystemNetlist sys = app::build_system_netlist({});
    const auto violations = reconfig::check_boundaries(sys.nl);
    std::cout << "boundary-crossing nets without bus macro: " << violations.size() << "\n";
    std::size_t macro_cells = 0;
    for (std::uint32_t i = 0; i < sys.nl.cell_count(); ++i)
        if (sys.nl.name(netlist::CellId{i}).find(reconfig::kBusMacroTag) !=
            std::string::npos)
            ++macro_cells;
    std::cout << "bus macro buffer LUTs: " << macro_cells << " (" << macro_cells / 2
              << " boundary signals)\n";

    print_header("Figure 5", "placed system occupancy map (XC3S1000)");
    const fabric::Device dev(fabric::PartName::XC3S1000);
    const par::PackedDesign packed = par::pack(sys.nl);
    par::Placement placement(dev, sys.nl, packed);
    // Spartan-3 frames are column-granular, so each side spans the full height.
    const int split = dev.cols() / 2;
    placement.constrain(sys.static_part, {0, split, 0, dev.rows()});
    for (const netlist::PartitionId slot : {sys.amp_part, sys.cap_part, sys.filt_part})
        placement.constrain(slot, {split, dev.cols(), 0, dev.rows()});
    placement.place_initial();

    // One character per CLB tile, labelled by the partition of its slices.
    std::vector<std::string> grid(static_cast<std::size_t>(dev.rows()),
                                  std::string(static_cast<std::size_t>(dev.cols()), '.'));
    std::size_t outside = 0;
    for (std::uint32_t si = 0; si < packed.slice_count(); ++si) {
        const auto pos = placement.slice_pos(par::SliceId{si});
        const netlist::PartitionId part = packed.slices()[si].partition;
        if (!placement.region_of(part).contains(pos.x, pos.y)) ++outside;
        grid[static_cast<std::size_t>(pos.y)][static_cast<std::size_t>(pos.x)] =
            "SACF"[part.value()];
    }
    // Every second row keeps the figure terminal-sized.
    for (int y = dev.rows() - 1; y >= 0; y -= 2)
        std::cout << grid[static_cast<std::size_t>(y)] << '\n';
    std::cout << "legend: S=static  A=amp_phase  C=capacity  F=filter  .=free\n";
    std::cout << "(dynamic partitions share the right-hand column range; at run\n"
              << " time only one of them is configured into the slot)\n";

    claim("F2: every boundary net passes a bus macro", violations.empty(),
          std::to_string(violations.size()) + " violations, " +
              std::to_string(macro_cells / 2) + " bridged signals");
    claim("F5: every slice lies inside its partition's columns", outside == 0,
          std::to_string(outside) + " of " + std::to_string(packed.slice_count()) +
              " slices outside");
}

// F3 (Fig. 3, §4.1): the 32-entry LUT at 16 MHz puts the fundamental at
// 500 kHz, and the on-chip delta-sigma DAC's in-band SNDR clears the bound
// DESIGN.md §4 states. The slice count is reported against the paper's
// "ca. 50", not gated.
TEST(Claims, F3SinusGenerator) {
    print_header("Figure 3", "sinus generator with internal DA converter");
    netlist::Netlist nl;
    const auto clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    const app::SinusGeneratorIo io = app::make_sinus_generator(b, nl.add_input_port("tick", 1)[0]);
    nl.add_output_port("code8", io.code8);
    nl.add_output_port("ds_bit", netlist::Bus{io.ds_bit});

    const auto stats = netlist::total_stats(nl);
    std::cout << "resource utilization: " << stats.slices() << " slices (" << stats.luts
              << " LUTs, " << stats.ffs << " FFs); paper reports ca. 50 slices\n";

    // The reconstructed bitstream at 16 MSPS over 8192 points, after 4096
    // ticks of settling.
    constexpr double kSampleHz = 16e6;
    constexpr double kToneHz = 500e3;
    constexpr int kPoints = 8192;
    constexpr int kBin = static_cast<int>(kPoints * kToneHz / kSampleHz);  // 256
    sim::EventSimulator simulator(nl);
    simulator.set_input("tick", 1);
    analog::RcFilter2 recon(1.5e6, kSampleHz);
    std::vector<double> signal;
    while (signal.size() < kPoints) {
        const double v = recon.step(simulator.get_port("ds_bit") != 0 ? 1.0 : -1.0);
        if (4096 < simulator.cycle_count()) signal.push_back(v);
        simulator.tick();
    }
    const analog::ToneQuality q = analog::analyze_tone(signal, kBin);
    // In-band quality up to 1 MHz (bin 512): the paper's external
    // low-pass/anti-alias filters remove the shaped noise above it.
    const double inband_db = analog::band_sndr_db(signal, kBin, 2 * kBin);
    const auto spectrum = analog::fft_real(signal);
    int peak = 1;
    for (int k = 2; k < kPoints / 2; ++k)
        if (std::abs(spectrum[static_cast<std::size_t>(k)]) >
            std::abs(spectrum[static_cast<std::size_t>(peak)]))
            peak = k;

    Table table({"metric", "value"});
    table.add_row({"excitation frequency", "500 kHz (bin 256 of 8192 @ 16 MSPS)"});
    table.add_row({"fundamental amplitude", Table::num(q.fundamental_amplitude, 3)});
    table.add_row({"THD (8 harmonics)", Table::num(q.thd_db, 1) + " dB"});
    table.add_row({"full-band SNDR after RC", Table::num(q.sndr_db, 1) + " dB"});
    table.add_row({"in-band SNDR (<= 1 MHz)", Table::num(inband_db, 1) + " dB"});
    std::cout << table.render();

    // The first prototype's external 8-bit DAC path, for comparison.
    sim::EventSimulator code_sim(nl);
    code_sim.set_input("tick", 1);
    std::vector<double> code_signal;
    while (code_signal.size() < kPoints) {
        code_signal.push_back((static_cast<double>(code_sim.get_port("code8")) - 128.0) /
                              128.0);
        code_sim.tick();
    }
    const analog::ToneQuality q8 = analog::analyze_tone(code_signal, kBin);
    std::cout << "external 8-bit DAC path (pre-filter): THD " << Table::num(q8.thd_db, 1)
              << " dB, SNDR " << Table::num(q8.sndr_db, 1) << " dB\n";

    claim("F3: the fundamental sits at 500 kHz", peak == kBin,
          "spectral peak at bin " + std::to_string(peak) + ", 500 kHz is bin " +
              std::to_string(kBin));
    claim("F3: in-band SNDR above 15 dB", inband_db > 15.0,
          Table::num(inband_db, 1) + " dB");
}

/// One fleet scenario of six cycles. Without faults, its busy time and power
/// do not depend on the noise seed.
fleet::ScenarioOutcome run_scenario(app::SystemVariant variant, fabric::PartName part,
                                    fleet::PortKind port) {
    fleet::Scenario s;
    s.name = std::string(app::variant_name(variant)) + "/" +
             std::string(fabric::part(part).id) + "/" + fleet::port_kind_name(port);
    s.variant = variant;
    s.part = part;
    s.port = port;
    s.cycles = 6;
    s.seed = 2008;
    fleet::ScenarioOutcome o = fleet::CampaignRunner().run({s}).outcomes.front();
    EXPECT_TRUE(o.ok) << s.name << ": " << o.error;
    return o;
}

// F4 (Fig. 4): the paper's system (reconfigured, XC3S400) closes its 100 ms
// cycle over every configuration port, and a cycle that does not is
// reported as such.
TEST(Claims, F4CycleSchedule) {
    for (const reconfig::ConfigPortSpec& port :
         {reconfig::jcap_port(), reconfig::jcap_accelerated_port(), reconfig::icap_port()}) {
        app::SystemOptions options;
        options.variant = app::SystemVariant::ReconfiguredHw;
        options.port = port;
        app::MeasurementSystem system(options);
        system.set_true_level(0.55);
        // The EMA filter converges over ~30 cycles, and the first cycle pays
        // the initial module loads.
        for (int i = 0; i < 30; ++i) (void)system.run_cycle();
        const app::CycleReport report = system.run_cycle();
        const double period_s = system.options().params.cycle_period_s;

        print_header("Figure 4", "measurement cycle schedule via " + port.name);
        Table table({"task", "start (ms)", "duration (ms)"});
        for (const auto& phase : report.phases)
            table.add_row({phase.name, Table::num(phase.start_s * 1e3, 3),
                           Table::num(phase.duration_s * 1e3, 3)});
        std::cout << table.render();
        std::cout << "busy " << Table::num(report.busy_s() * 1e3, 2) << " ms of the "
                  << Table::num(period_s * 1e3, 0) << " ms cycle (sampling "
                  << Table::num(report.sampling_s * 1e3, 2) << " + reconfig "
                  << Table::num(report.reconfig_s * 1e3, 2) << " + processing "
                  << Table::num(report.processing_s * 1e3, 4) << " + scrub "
                  << Table::num((report.scrub_s + report.repair_s) * 1e3, 2) << ")\n";
        std::cout << "measured level: " << Table::num(report.level, 3) << " (true 0.550)\n";
        claim("F4: the " + port.name + " cycle closes within its period",
              report.busy_s() < period_s, Table::num(report.busy_s() * 1e3, 2) + " ms busy");
    }

    // The XC3S1000's larger slot bitstream makes the plain JCAP overrun.
    const fleet::ScenarioOutcome big = run_scenario(app::SystemVariant::ReconfiguredHw,
                                                    fabric::PartName::XC3S1000,
                                                    fleet::PortKind::Jcap);
    const double period_ms = app::AppParams{}.cycle_period_s * 1e3;
    const bool overruns = big.cycle_busy_ms > period_ms;
    claim("F4: a cycle over its budget is reported",
          !overruns || !big.ok || big.availability < 1.0,
          big.scenario.name + " busy " + Table::num(big.cycle_busy_ms, 1) + " ms per " +
              Table::num(period_ms, 0) + " ms cycle, " + (big.ok ? "ok" : "failed") +
              ", availability " + Table::num(big.availability, 3));
}

std::vector<std::int32_t> tone_window(const app::AppParams& p, double amp, double phi) {
    std::vector<std::int32_t> w(static_cast<std::size_t>(p.window));
    for (int n = 0; n < p.window; ++n)
        w[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(
            std::lround(amp * std::sin(2.0 * M_PI * p.bin * n / p.window + phi)));
    return w;
}

// H1 (§4.2): the hardware modules process a window at least 1000x faster
// than the legacy software port ("approximately a factor 1000", 7 ms ->
// 7 us).
TEST(Claims, H1SoftwareVsHardware) {
    print_header("Headline (§4.2)", "processing time: software vs hardware modules");
    const app::AppParams p;
    const auto meas = tone_window(p, 1400.0, 0.3);
    const auto ref = tone_window(p, 1000.0, 0.0);

    struct Row {
        const char* name;
        double seconds;
        std::uint32_t code_bytes;
    };
    std::vector<Row> rows;
    const auto software = [&](const char* name, const app::SoftwareConfig& cfg) {
        const auto run = app::SoftCore(p, cfg).run(meas, ref);
        rows.push_back({name, run.seconds(p.system_clock_hz), run.code_bytes});
    };
    app::SoftwareConfig cfg;  // legacy port: soft multiply, SRAM code
    software("SW: legacy port (soft mul, code in ext. SRAM)", cfg);
    cfg.hw_multiplier = true;
    software("SW: + MULT18-backed multiplier", cfg);
    cfg.code_in_sram = false;
    cfg.padding_bytes = 0;
    software("SW: + kernel-only code in LMB BRAM", cfg);
    // The modules replay the buffered window at the system clock (N MAC
    // cycles + registered combinational tails).
    const double hw_seconds = (p.window + 12.0) / p.system_clock_hz;
    rows.push_back({"HW: data-processing modules (§4.2)", hw_seconds, 0});

    const double sw_seconds = rows.front().seconds;
    Table table({"implementation", "processing time", "speedup vs legacy SW", "code size"});
    for (const auto& row : rows) {
        const double t = row.seconds;
        table.add_row({row.name,
                       t >= 1e-3 ? Table::num(t * 1e3, 2) + " ms"
                                 : Table::num(t * 1e6, 2) + " us",
                       Table::num(sw_seconds / t, 0) + "x",
                       row.code_bytes != 0
                           ? Table::num(static_cast<double>(row.code_bytes) / 1024.0, 1) +
                                 " KB"
                           : "-"});
    }
    std::cout << table.render();
    const double factor = sw_seconds / hw_seconds;
    std::cout << "paper: 7 ms -> 7 us (~1000x). measured: " << Table::num(sw_seconds * 1e3, 2)
              << " ms -> " << Table::num(hw_seconds * 1e6, 2) << " us ("
              << Table::num(factor, 0) << "x)\n";
    claim("H1: legacy SW / HW processing >= 1000x", factor >= 1000.0,
          Table::num(factor, 0) + "x");

    // The same relation on whole systems' first cycles.
    app::SystemOptions sw_options;
    sw_options.variant = app::SystemVariant::Software;
    app::SystemOptions hw_options;
    hw_options.variant = app::SystemVariant::MonolithicHw;
    app::MeasurementSystem sw(sw_options);
    app::MeasurementSystem hw(hw_options);
    sw.set_true_level(0.5);
    hw.set_true_level(0.5);
    const double system_factor = sw.run_cycle().processing_s / hw.run_cycle().processing_s;
    std::cout << "system cycle: Software variant processes "
              << Table::num(system_factor, 0) << "x longer than MonolithicHw\n";
    claim("H1: a Software cycle processes 200x to 5000x longer than a hardware one",
          system_factor > 200.0 && system_factor < 5000.0,
          Table::num(system_factor, 0) + "x");
}

// H2 (§4.2): monolithic -> XC3S1000, one reconfigurable slot -> XC3S400,
// five smaller slots on the minimal MicroBlaze -> XC3S200.
TEST(Claims, H2DeviceFit) {
    print_header("Headline (§4.2)", "device fit: monolithic vs reconfigured vs 5-slot");
    // The campaign's fitter for the first two rows.
    const fleet::VariantFit mono = fleet::variant_fit(app::SystemVariant::MonolithicHw);
    const fleet::VariantFit reconf = fleet::variant_fit(app::SystemVariant::ReconfiguredHw);

    const app::SystemNetlist full = app::build_system_netlist({});
    const auto stats = netlist::partition_stats(full.nl);
    const std::size_t amp = stats[full.amp_part.value()].slices();
    const std::size_t cap = stats[full.cap_part.value()].slices();
    const std::size_t filt = stats[full.filt_part.value()].slices();
    // Five slots: a slim static area (minimal MicroBlaze, no EMC) and the
    // pipeline split into five submodules (MAC stage, CORDIC stage, divider,
    // cos+scaling, filter); the slot is sized by the largest of them.
    app::SystemNetlistOptions slim_options;
    slim_options.soft_ip = soc::SoftIpBudgets::minimal();
    const app::SystemNetlist slim = app::build_system_netlist(slim_options);
    const std::size_t slim_static =
        netlist::partition_stats(slim.nl)[slim.static_part.value()].slices();
    const std::size_t five_slots = slim_static + std::max({amp / 3 + 1, cap / 2 + 1, filt});
    const auto headroom = [](std::size_t slices) {
        return static_cast<std::size_t>(static_cast<double>(slices) * fleet::kParHeadroom);
    };
    const auto five_part = fabric::smallest_fit(static_cast<int>(headroom(five_slots)), 0, 0);

    struct Row {
        const char* name;
        std::size_t resident;
        std::size_t with_headroom;
        std::optional<fabric::PartName> part;
        int loads;
    };
    const Row rows[] = {
        {"monolithic (all modules resident)", mono.resident_slices, mono.with_headroom,
         mono.fitted, 0},
        {"reconfigured, 1 slot (paper's system)", reconf.resident_slices,
         reconf.with_headroom, reconf.fitted, 3},
        {"reconfigured, 5 slots + slim static", five_slots, headroom(five_slots), five_part,
         5},
    };
    Table table({"scenario", "resident slices", "+7% headroom", "smallest part",
                 "static power (mW)", "unit cost (USD)", "loads/cycle"});
    for (const Row& r : rows) {
        const fabric::Part* part = r.part ? &fabric::part(*r.part) : nullptr;
        table.add_row({r.name, std::to_string(r.resident), std::to_string(r.with_headroom),
                       part_id(r.part), part ? Table::num(part->static_power_mw(), 1) : "-",
                       part ? Table::num(part->unit_cost_usd, 2) : "-",
                       std::to_string(r.loads)});
    }
    std::cout << table.render();
    std::cout << "paper: >6000 slices monolithic -> XC3S1000; reconfigured -> "
                 "XC3S400; 5-slot -> XC3S200\n";
    std::cout << "measured: " << rows[0].with_headroom << " -> " << part_id(rows[0].part)
              << "; " << rows[1].with_headroom << " -> " << part_id(rows[1].part) << "; "
              << rows[2].with_headroom << " -> " << part_id(rows[2].part) << "\n";
    if (mono.fitted && reconf.fitted)
        std::cout << "static power saved by downsizing (mono -> 1 slot): "
                  << Table::num(fabric::part(*mono.fitted).static_power_mw() -
                                    fabric::part(*reconf.fitted).static_power_mw(),
                                1)
                  << " mW\n";

    // Slot count against slot size and per-cycle reconfiguration time over
    // the JCAP: more slots fit a smaller device but swap more often.
    print_header("Ablation", "slot granularity sweep (JCAP)");
    const auto port = reconfig::jcap_port();
    Table sweep({"slots", "slot size (slices)", "resident + headroom", "part",
                 "reconfig per cycle (ms)"});
    for (const int slots : {1, 2, 3, 5, 8}) {
        const std::size_t slot_size = (amp + cap + filt) / static_cast<std::size_t>(slots) + 1;
        const std::size_t resident = headroom(slim_static + slot_size);
        const auto part_name = fabric::smallest_fit(static_cast<int>(resident), 0, 0);
        double reconfig_ms = 0.0;
        if (part_name) {
            const fabric::Device dev(*part_name);
            // Slot columns sized by the slot's share of the die's slices.
            const int cols = std::max(
                1, static_cast<int>(slot_size * static_cast<std::size_t>(dev.cols()) /
                                    static_cast<std::size_t>(dev.slice_count())));
            const auto bits = dev.partial_bits(0, std::min(cols, dev.cols()));
            reconfig_ms =
                slots * (port.setup_s + static_cast<double>(bits) / port.throughput_bps()) *
                1e3;
        }
        sweep.add_row({std::to_string(slots), std::to_string(slot_size),
                       std::to_string(resident), part_id(part_name),
                       Table::num(reconfig_ms, 2)});
    }
    std::cout << sweep.render();

    claim("H2: monolithic fits the XC3S1000 and nothing smaller",
          mono.fitted == fabric::PartName::XC3S1000, part_id(mono.fitted));
    claim("H2: one slot fits the XC3S400 and nothing smaller",
          reconf.fitted == fabric::PartName::XC3S400, part_id(reconf.fitted));
    claim("H2: five slots on the minimal MicroBlaze fit the XC3S200",
          five_part == fabric::PartName::XC3S200, part_id(five_part));
}

// H3 (§4.2, ref. [11]): per cycle, reconfiguring over the ICAP takes less
// time than over the accelerated JCAP, which takes less than the JCAP.
TEST(Claims, H3ConfigPorts) {
    print_header("Config ports", "throughput and per-module load time");
    const std::vector<reconfig::ConfigPortSpec> all_ports{
        reconfig::jcap_port(), reconfig::jcap_accelerated_port(), reconfig::selectmap_port(),
        reconfig::icap_port()};
    const fabric::Device dev(fabric::PartName::XC3S400);
    const int slot_cols = dev.cols() / 3;
    const reconfig::Bitstream slot = reconfig::Bitstream::partial(dev, "module", 0, slot_cols);
    const reconfig::Bitstream full = reconfig::Bitstream::full(dev, "full");
    Table ports({"port", "payload rate",
                 "slot load (" + std::to_string(slot.bytes() / 1024) + " KiB)",
                 "full device (" + std::to_string(full.bytes() / 1024) + " KiB)",
                 "energy/slot (mJ)"});
    for (const auto& port : all_ports)
        ports.add_row({port.name, Table::num(port.throughput_bps() / 1e6, 1) + " Mbit/s",
                       Table::num(port.config_time_s(slot) * 1e3, 2) + " ms",
                       Table::num(port.config_time_s(full) * 1e3, 2) + " ms",
                       Table::num(port.config_energy_mj(slot), 3)});
    std::cout << ports.render();
    std::cout << "note: Spartan-3 has no ICAP; the JCAP [11] virtualizes the "
                 "internal port over JTAG, trading rate for availability\n";

    print_header("Per-cycle overhead", "3 module swaps per 100 ms measurement cycle");
    Table cycle({"port", "reconfig per cycle (ms)", "share of 100 ms cycle",
                 "reconfig energy per cycle (mJ)"});
    std::vector<double> per_cycle_ms;
    for (const auto& port : all_ports) {
        reconfig::ReconfigController ctrl(dev, port);
        ctrl.add_slot("slot0", {dev.cols() - slot_cols, dev.cols(), 0, dev.rows()});
        for (const char* module : {"amp_phase", "capacity", "filter"})
            ctrl.register_module("slot0", module);
        for (const char* module : {"amp_phase", "capacity", "filter"})
            (void)ctrl.load("slot0", module);
        per_cycle_ms.push_back(ctrl.total_time_s() * 1e3);
        cycle.add_row({port.name, Table::num(per_cycle_ms.back(), 2),
                       Table::num(ctrl.total_time_s() / 0.1 * 100.0, 1) + " %",
                       Table::num(ctrl.total_energy_mj(), 3)});
    }
    std::cout << cycle.render();

    print_header("Scaling", "JCAP load time vs slot width (XC3S400)");
    Table scaling({"slot columns", "bitstream (KiB)", "load time (ms)"});
    for (const int cols : {2, 4, 8, 12, 18, 28}) {
        const auto bs = reconfig::Bitstream::partial(dev, "m", 0, cols);
        scaling.add_row({std::to_string(cols), std::to_string(bs.bytes() / 1024),
                         Table::num(reconfig::jcap_port().config_time_s(bs) * 1e3, 2)});
    }
    std::cout << scaling.render();

    const double jcap = per_cycle_ms[0];
    const double accelerated = per_cycle_ms[1];
    const double icap = per_cycle_ms[3];
    claim("H3: reconfiguration per cycle ICAP < accelerated JCAP < JCAP",
          icap < accelerated && accelerated < jcap,
          Table::num(icap, 2) + " < " + Table::num(accelerated, 2) + " < " +
              Table::num(jcap, 2) + " ms");
}

/// The running system under 0.5 upsets per CLB-column-second for 60 cycles.
fault::FaultStats run_faulty(const reconfig::ConfigPortSpec& port, double idle_share) {
    app::SystemOptions options;
    options.variant = app::SystemVariant::ReconfiguredHw;
    options.port = port;
    options.scrub_idle_fraction = idle_share;
    options.fault.upset_rate_per_column_s = 0.5;
    app::MeasurementSystem system(options, 2008);
    system.set_true_level(0.55);
    for (int i = 0; i < 60; ++i) (void)system.run_cycle();
    return system.fault_stats();
}

double scrub_ms_per_cycle(const fault::FaultStats& stats) {
    return (stats.scrub_s + stats.repair_s) / static_cast<double>(stats.cycles) * 1e3;
}

// X1 and X2 (extensions, §1/§5 motivation): readback scrubbing repairs
// every column it finds corrupted, and on the running system a faster port
// or a larger donated share of the idle window detects upsets sooner.
TEST(Claims, X1X2FaultRecovery) {
    print_header("Extension", "SEU readback scrubbing (fault injection)");
    const fabric::Device dev(fabric::PartName::XC3S400);
    const std::vector<reconfig::ConfigPortSpec> ports{
        reconfig::jcap_port(), reconfig::jcap_accelerated_port(), reconfig::icap_port()};
    Rng rng(42);
    Table scrub({"port", "full-device scan (ms)", "mean detect latency (ms)",
                 "100 injected upsets: detected/repaired"});
    bool all_repaired = true;
    int residual = 0;
    std::string repairs;
    for (const auto& port : ports) {
        reconfig::ConfigMemory memory(dev);
        memory.load_columns(0, dev.cols(), 0xBADC0FFEEULL);
        reconfig::Scrubber scrubber(memory, port);
        int detected = 0;
        int repaired = 0;
        double scan_ms = 0.0;
        // 10 rounds of 10 upsets each, scrubbed after every round.
        for (int round = 0; round < 10; ++round) {
            for (int i = 0; i < 10; ++i)
                memory.inject_upset(
                    static_cast<int>(rng.next_below(static_cast<std::uint32_t>(dev.cols()))),
                    rng);
            const reconfig::ScrubReport report = scrubber.scan(0, dev.cols());
            detected += report.upsets_detected;
            repaired += report.columns_repaired;
            residual += memory.corrupted_count();
            scan_ms = report.readback_s * 1e3;
        }
        all_repaired = all_repaired && repaired == detected;
        repairs += (repairs.empty() ? "" : ", ") + std::to_string(detected) + "/" +
                   std::to_string(repaired);
        scrub.add_row({port.name, Table::num(scan_ms, 2),
                       Table::num(reconfig::mean_detection_latency_s(dev, port, 0.1) * 1e3, 1),
                       std::to_string(detected) + "/" + std::to_string(repaired)});
    }
    std::cout << scrub.render();
    std::cout << "(multiple upsets in one column count once: the column is "
                 "rewritten whole; residual corruption after each scan is "
              << residual << ")\n";

    print_header("Fault recovery vs configuration port",
                 "upset rate 0.5 / column-second, scrub share 0.5 of idle");
    Table by_port({"port", "analytic MTTD (ms)", "measured MTTD (ms)", "MTTR (ms)",
                   "scrub (ms/cyc)", "availability"});
    std::vector<double> port_mttd;
    for (const auto& port : ports) {
        const fault::FaultStats stats = run_faulty(port, 0.5);
        port_mttd.push_back(stats.mean_time_to_detect_s() * 1e3);
        // A free-running scrub loop at the port's full bandwidth; the
        // in-system scrubber only gets the donated idle share.
        by_port.add_row(
            {port.name, Table::num(reconfig::mean_detection_latency_s(dev, port, 0.0) * 1e3, 2),
             Table::num(port_mttd.back(), 2),
             Table::num(stats.mean_time_to_repair_s() * 1e3, 2),
             Table::num(scrub_ms_per_cycle(stats), 2), Table::num(stats.availability(), 3)});
    }
    std::cout << by_port.render();

    print_header("Fault recovery vs donated idle share",
                 "accelerated JCAP, upset rate 0.5 / column-second");
    const auto accelerated = reconfig::jcap_accelerated_port();
    // Per-column readback time, to recover the columns scanned per cycle.
    const double column_s =
        static_cast<double>(dev.bits_per_clb_column()) / accelerated.throughput_bps();
    Table by_share({"idle share", "cols/cycle", "measured MTTD (ms)", "scrub (ms/cyc)",
                    "availability"});
    std::vector<double> share_mttd;
    for (const double share : {0.1, 0.25, 0.5, 0.9}) {
        const fault::FaultStats stats = run_faulty(accelerated, share);
        share_mttd.push_back(stats.mean_time_to_detect_s() * 1e3);
        by_share.add_row(
            {Table::num(share, 2),
             Table::num(stats.scrub_s / column_s / static_cast<double>(stats.cycles), 1),
             Table::num(share_mttd.back(), 2), Table::num(scrub_ms_per_cycle(stats), 2),
             Table::num(stats.availability(), 3)});
    }
    std::cout << by_share.render();

    const auto falling = [](const std::vector<double>& v) {
        return std::adjacent_find(v.begin(), v.end(), std::less_equal<>()) == v.end();
    };
    const auto joined = [](const std::vector<double>& v) {
        std::string s;
        for (const double x : v) s += (s.empty() ? "" : " > ") + Table::num(x, 1);
        return s + " ms";
    };
    claim("X1: scrubbing repairs every corrupted column it finds and leaves none",
          all_repaired && residual == 0,
          "detected/repaired " + repairs + ", " + std::to_string(residual) +
              " corrupted after the scans");
    claim("X2: a faster port detects upsets sooner (JCAP, accelerated JCAP, ICAP)",
          falling(port_mttd), joined(port_mttd));
    claim("X2: a larger donated idle share detects upsets sooner", falling(share_mttd),
          joined(share_mttd));
}

// T2 and F6 (Table 2, Fig. 6, §4.3): reallocating the hottest nets' logic
// does not increase total dynamic power. The per-net reductions are reported
// against the paper's 40-60 %, not gated.
TEST(Claims, T2F6NetPower) {
    print_header("Table 2", "per-net power before/after logic reallocation (uW)");
    // The paper optimized the data-processing modules; the full system
    // netlist (soft-IP activity included) on the XC3S1000.
    const app::SystemNetlist sys = app::build_system_netlist({});
    const sim::ActivityMap activity = app::system_activity(sys.nl, kClockHz);
    par::Implementation impl(sys.nl, fabric::PartName::XC3S1000, {.effort = 0.05});
    const long routed_overflow = impl.routed.overflow_count();
    par::ReallocateOptions options;
    options.net_count = 8;
    options.capture_routes = true;
    const par::ReallocateReport report =
        par::optimize_net_power(impl.placement, impl.routed, activity, options);

    Table table({"signal net", "power before (uW)", "power after (uW)", "reduction (%)",
                 "logic moved"});
    double least_cut = 100.0;
    double most_cut = 0.0;
    for (const auto& change : report.nets) {
        table.add_row({change.name, Table::num(change.before_uw), Table::num(change.after_uw),
                       Table::num(change.reduction_pct(), 1),
                       change.moved_logic ? "yes" : "re-route only"});
        if (change.moved_logic) {
            least_cut = std::min(least_cut, change.reduction_pct());
            most_cut = std::max(most_cut, change.reduction_pct());
        }
    }
    std::cout << table.render();
    std::cout << "total dynamic power: " << Table::num(report.total_before_uw * 1e-3)
              << " mW -> " << Table::num(report.total_after_uw * 1e-3) << " mW\n";
    std::cout << "critical path: " << Table::num(report.critical_before_ps * 1e-3, 2)
              << " ns -> " << Table::num(report.critical_after_ps * 1e-3, 2)
              << " ns (slack gate " << options.timing_slack << "x)\n";
    std::cout << "nets whose logic moved: " << Table::num(least_cut, 1) << "-"
              << Table::num(most_cut, 1) << " % lower (paper: 40-60 %)\n";

    print_header("Figure 6", "optimized signal net routing (hottest net)");
    if (!report.nets.empty())
        std::cout << "--- before reallocation ---\n"
                  << report.nets.front().route_before << "--- after reallocation ---\n"
                  << report.nets.front().route_after;

    claim("T2: total dynamic power does not increase",
          report.total_after_uw <= report.total_before_uw,
          Table::num(report.total_before_uw * 1e-3) + " -> " +
              Table::num(report.total_after_uw * 1e-3) + " mW");
    const long overflow = impl.routed.overflow_count();
    claim("T2: zero channel overflow", routed_overflow == 0 && overflow == 0,
          std::to_string(routed_overflow) + " overflowed segments after routing, " +
              std::to_string(overflow) + " after reallocation");
    const double period_ps = 1e12 / kClockHz;
    claim("T2: slack >= 0 at the 50 MHz system clock",
          report.critical_after_ps <= period_ps,
          "critical path " + Table::num(report.critical_after_ps * 1e-3, 1) + " ns, Fmax " +
              Table::num(1e6 / report.critical_after_ps, 2) + " MHz");
}

// §4.3 proposal, DESIGN.md §5 ablation: weighting the placer's net cost by
// switching activity (beta > 0) lowers the hottest nets' power against the
// wirelength-only flow (beta = 0), on the hardware core on the XC3S400.
TEST(Claims, T2ActivityWeightedPlacement) {
    print_header("Ablation", "activity-weighted placement (beta) vs wirelength-only");
    const app::SystemNetlist sys = app::build_system_netlist(
        {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false});
    const sim::ActivityMap activity = app::system_activity(sys.nl, kClockHz);

    Table table({"placer", "total net C (pF)", "hot-20 net power (uW)"});
    std::vector<double> hot_uw;
    for (const double beta : {0.0, 0.5, 1.5}) {
        const par::Implementation impl(sys.nl, fabric::PartName::XC3S400,
                                       {.effort = 0.15, .activity_beta = beta}, &activity);
        double uw = 0.0;
        for (const auto net : activity.busiest(20))
            uw += par::net_power_uw(impl.routed, net, activity, 1.2);
        hot_uw.push_back(uw);
        table.add_row({beta == 0.0 ? "wirelength only (ISE-like)"
                                   : "activity beta=" + Table::num(beta, 1),
                       Table::num(impl.routed.total_capacitance_pf(), 1), Table::num(uw, 1)});
    }
    std::cout << table.render();
    claim("Ablation: every beta > 0 lowers hot-20 net power",
          hot_uw[1] < hot_uw[0] && hot_uw[2] < hot_uw[0],
          "beta 0 / 0.5 / 1.5: " + Table::num(hot_uw[0], 1) + " / " +
              Table::num(hot_uw[1], 1) + " / " + Table::num(hot_uw[2], 1) + " uW");
}

struct VariantPower {
    std::string name;
    double static_mw = 0.0;
    double dynamic_mw = 0.0;
    double reconfig_mw = 0.0;  ///< amortized over the 100 ms cycle

    [[nodiscard]] double total() const { return static_mw + dynamic_mw + reconfig_mw; }
};

/// XPower-style estimate of a placed and routed variant, the fabric toggling
/// at the system pattern's rates, plus reconfiguration energy per cycle.
VariantPower measure_variant(const std::string& name,
                             const app::SystemNetlistOptions& nl_options,
                             fabric::PartName part, double clock_hz,
                             double reconfig_mj_per_cycle) {
    const app::SystemNetlist sys = app::build_system_netlist(nl_options);
    const sim::ActivityMap activity =
        app::system_activity(sys.nl, clock_hz, {.cycles = 192});
    const par::Implementation impl(sys.nl, part, {.effort = 0.04});
    const power::PowerReport report = power::estimate_power(impl.routed, activity, clock_hz);
    return {name, report.static_mw, report.dynamic_mw(), reconfig_mj_per_cycle / 0.1};
}

// H4 (§2, §4.2): the microcontroller draws less than every FPGA variant;
// the reconfigured XC3S400 less than the monolithic XC3S1000; and a lower
// clock lowers dynamic power. Checked in the estimator's power model, then
// in the campaign's.
TEST(Claims, H4SystemPower) {
    print_header("Power breakdown", "system variants, XPower-style estimation");
    std::vector<VariantPower> variants;
    // The original low-power microcontroller (datasheet-class model: ~3 mW
    // active core + 5 mW analog front end).
    variants.push_back({"low-power microcontroller (original product)", 0.4, 7.6, 0.0});
    variants.push_back(measure_variant("FPGA monolithic, XC3S1000 @ 50 MHz", {},
                                       fabric::PartName::XC3S1000, kClockHz, 0.0));
    // One slot: the static area plus the largest module resident, and three
    // JCAP loads per cycle.
    const fabric::Device s400(fabric::PartName::XC3S400);
    const double reconfig_mj =
        3.0 * reconfig::jcap_port().config_energy_mj(
                  reconfig::Bitstream::partial(s400, "m", 0, s400.cols() / 3));
    app::SystemNetlistOptions resident;
    resident.include_capacity = false;
    resident.include_filter = false;
    variants.push_back(measure_variant("FPGA reconfigured (1 slot), XC3S400 @ 50 MHz + JCAP",
                                       resident, fabric::PartName::XC3S400, kClockHz,
                                       reconfig_mj));
    // The x1000 hardware speedup leaves room to clock the fabric at 12.5 MHz.
    variants.push_back(measure_variant("FPGA reconfigured, XC3S400 @ 12.5 MHz + JCAP",
                                       resident, fabric::PartName::XC3S400, 12.5e6,
                                       reconfig_mj));

    Table table({"variant", "static (mW)", "dynamic (mW)", "reconfig (mW)", "total (mW)"});
    for (const auto& v : variants)
        table.add_row({v.name, Table::num(v.static_mw, 1), Table::num(v.dynamic_mw, 1),
                       Table::num(v.reconfig_mw, 2), Table::num(v.total(), 1)});
    std::cout << table.render();
    const VariantPower& mcu = variants[0];
    const VariantPower& mono = variants[1];
    const VariantPower& reconf = variants[2];
    const VariantPower& slow = variants[3];
    std::cout << "FPGA power recovered by the paper's methodology: "
              << Table::num(mono.total(), 1) << " mW -> " << Table::num(slow.total(), 1)
              << " mW (" << Table::num(100.0 * (mono.total() - slow.total()) / mono.total(), 0)
              << "% lower)\n";

    claim("H4: the microcontroller draws less than every FPGA variant",
          std::all_of(variants.begin() + 1, variants.end(),
                      [&](const VariantPower& v) { return mcu.total() < v.total(); }),
          Table::num(mcu.total(), 1) + " mW against at least " +
              Table::num(slow.total(), 1) + " mW");
    claim("H4: reconfigured XC3S400 below monolithic XC3S1000",
          reconf.total() < mono.total(),
          Table::num(reconf.total(), 1) + " < " + Table::num(mono.total(), 1) + " mW");
    claim("H4: dynamic power at 12.5 MHz below 50 MHz", slow.dynamic_mw < reconf.dynamic_mw,
          Table::num(slow.dynamic_mw, 1) + " < " + Table::num(reconf.dynamic_mw, 1) + " mW");

    print_header("Campaign power", "fleet's power model, six cycles per scenario");
    const fleet::ScenarioOutcome outcomes[] = {
        run_scenario(app::SystemVariant::MonolithicHw, fabric::PartName::XC3S1000,
                     fleet::PortKind::Jcap),
        run_scenario(app::SystemVariant::ReconfiguredHw, fabric::PartName::XC3S400,
                     fleet::PortKind::Jcap),
        run_scenario(app::SystemVariant::ReconfiguredHw, fabric::PartName::XC3S400,
                     fleet::PortKind::JcapAccelerated),
    };
    Table campaign({"scenario", "static (mW)", "dynamic (mW)", "total (mW)"});
    for (const auto& o : outcomes)
        campaign.add_row({o.scenario.name, Table::num(o.static_mw, 1),
                          Table::num(o.dynamic_mw, 1), Table::num(o.total_mw(), 1)});
    std::cout << campaign.render();
    const double mono_mw = outcomes[0].total_mw();
    claim("H4: campaign prices reconfigured XC3S400 below monolithic XC3S1000",
          outcomes[1].total_mw() < mono_mw && outcomes[2].total_mw() < mono_mw,
          Table::num(outcomes[1].total_mw(), 1) + " (jcap) and " +
              Table::num(outcomes[2].total_mw(), 1) + " (jcap-acc) against " +
              Table::num(mono_mw, 1) + " mW");
}

}  // namespace
}  // namespace refpga
