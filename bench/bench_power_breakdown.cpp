// §2/§4 motivation — Total system power across implementation options.
//
// The paper's argument chain: a plain FPGA port burns more power than the
// original low-power microcontroller; integrating the converters, moving the
// algorithms to hardware (enabling a lower clock) and downsizing the device
// via partial reconfiguration claw that back. We run the XPower-style
// estimator over placed-and-routed variants and add the reconfiguration
// energy amortized over the 100 ms cycle.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "refpga/common/table.hpp"
#include "refpga/power/estimator.hpp"
#include "refpga/reconfig/config_port.hpp"
#include "refpga/reconfig/controller.hpp"

namespace {

using namespace refpga;

struct VariantPower {
    std::string name;
    double static_mw = 0.0;
    double dynamic_mw = 0.0;
    double reconfig_mw = 0.0;  ///< amortized over the 100 ms cycle

    [[nodiscard]] double total() const { return static_mw + dynamic_mw + reconfig_mw; }
};

VariantPower measure_variant(const std::string& name,
                             const app::SystemNetlistOptions& nl_options,
                             fabric::PartName part, double clock_hz,
                             double reconfig_mj_per_cycle) {
    const app::SystemNetlist sys = app::build_system_netlist(nl_options);
    const sim::ActivityMap activity =
        app::system_activity(sys.nl, clock_hz, {.cycles = 192});
    benchkit::Implementation impl(sys.nl, part, 0.04);
    const power::PowerReport report =
        power::estimate_power(impl.routed, activity, clock_hz);
    VariantPower v;
    v.name = name;
    v.static_mw = report.static_mw;
    v.dynamic_mw = report.dynamic_mw();
    v.reconfig_mw = reconfig_mj_per_cycle / 0.1;  // mJ per 100 ms -> mW
    return v;
}

void print_breakdown() {
    benchkit::print_header("Power breakdown",
                           "system variants, XPower-style estimation");

    std::vector<VariantPower> variants;

    // Reference point: the original low-power microcontroller solution
    // (datasheet-class model: ~3 mW active core + 5 mW analog front end).
    VariantPower mcu;
    mcu.name = "low-power microcontroller (original product)";
    mcu.static_mw = 0.4;
    mcu.dynamic_mw = 7.6;
    variants.push_back(mcu);

    // Monolithic FPGA port: everything resident on an XC3S1000 at 50 MHz.
    app::SystemNetlistOptions mono;
    variants.push_back(measure_variant("FPGA monolithic, XC3S1000 @ 50 MHz", mono,
                                       fabric::PartName::XC3S1000, 50e6, 0.0));

    // Reconfigured: only static + largest module resident, XC3S400, 50 MHz,
    // plus 3 JCAP loads per cycle.
    const fabric::Device s400(fabric::PartName::XC3S400);
    const auto port = reconfig::jcap_port();
    const auto slot =
        reconfig::Bitstream::partial(s400, "m", 0, s400.cols() / 3);
    const double reconfig_mj = 3.0 * port.config_energy_mj(slot);
    app::SystemNetlistOptions resident;
    resident.include_capacity = false;
    resident.include_filter = false;
    variants.push_back(measure_variant(
        "FPGA reconfigured (1 slot), XC3S400 @ 50 MHz + JCAP", resident,
        fabric::PartName::XC3S400, 50e6, reconfig_mj));

    // Reconfigured + lowered clock: the x1000 hardware speedup leaves room to
    // run the fabric at 12.5 MHz and still finish well inside the cycle.
    variants.push_back(measure_variant(
        "FPGA reconfigured, XC3S400 @ 12.5 MHz + JCAP", resident,
        fabric::PartName::XC3S400, 12.5e6, reconfig_mj));

    Table table({"variant", "static (mW)", "dynamic (mW)", "reconfig (mW)",
                 "total (mW)"});
    for (const auto& v : variants)
        table.add_row({v.name, Table::num(v.static_mw, 1), Table::num(v.dynamic_mw, 1),
                       Table::num(v.reconfig_mw, 2), Table::num(v.total(), 1)});
    std::cout << table.render();

    const double mono_total = variants[1].total();
    const double best_fpga = variants.back().total();
    std::cout << "FPGA power recovered by the paper's methodology: "
              << Table::num(mono_total, 1) << " mW -> " << Table::num(best_fpga, 1)
              << " mW (" << Table::num(100.0 * (mono_total - best_fpga) / mono_total, 0)
              << "% lower)\n";
    std::cout << "remaining gap to the microcontroller buys run-time "
                 "adaptation, fault handling and interface flexibility (§5)\n";
}

void BM_PowerEstimate(benchmark::State& state) {
    const app::SystemNetlist sys = app::build_system_netlist(
        {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false});
    const sim::ActivityMap activity =
        app::system_activity(sys.nl, 50e6, {.cycles = 64});
    benchkit::Implementation impl(sys.nl, fabric::PartName::XC3S400, 0.02);
    for (auto _ : state) {
        auto report = power::estimate_power(impl.routed, activity, 50e6);
        benchmark::DoNotOptimize(report.total_mw());
    }
}
BENCHMARK(BM_PowerEstimate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_breakdown();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
