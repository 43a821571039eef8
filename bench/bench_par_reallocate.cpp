// §4.3 reallocation engine: the library's incremental engine vs the
// reference oracle, on the Table-2 scenario.
//
// The incremental engine (precomputed adjacency, scratch-route delta costing,
// cached net power, lazy timing) must produce a byte-identical
// ReallocateReport to the naive reference implementation of the test-support
// library while being several times faster. This bench measures both, checks
// the equality and the total-power invariant, and emits a machine-readable
// BENCH_par_reallocate.json next to the binary. Exit status is non-zero on
// any invariant violation, so CI can run it as a check.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "refpga/common/table.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/reallocate_reference.hpp"

namespace {

using namespace refpga;

constexpr double kClockHz = 50e6;

using Optimizer = par::ReallocateReport (*)(par::Placement&, par::RoutedDesign&,
                                           const sim::ActivityMap&,
                                           const par::ReallocateOptions&);

struct RunResult {
    par::ReallocateReport report;
    double wall_ms = 0.0;
    long overflow = 0;
};

/// Builds a fresh implementation (the flow is deterministic, so every run
/// starts from the same placement and routes) and times only the optimizer.
RunResult run_engine(Optimizer optimize, const netlist::Netlist& nl,
                     fabric::PartName part, const sim::ActivityMap& activity,
                     const par::ReallocateOptions& options) {
    benchkit::Implementation impl(nl, part, 0.05);
    const auto t0 = std::chrono::steady_clock::now();
    RunResult r;
    r.report = optimize(impl.placement, impl.routed, activity, options);
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.overflow = impl.routed.overflow_count();
    return r;
}

double nets_per_s(const RunResult& r) {
    return r.wall_ms > 0.0
               ? static_cast<double>(r.report.nets.size()) / (r.wall_ms * 1e-3)
               : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    benchkit::print_header("PAR reallocate",
                           std::string("incremental engine vs reference oracle") +
                               (smoke ? " [smoke]" : ""));

    // Table-2 scenario: the full system on the XC3S1000 (smoke: the hardware
    // core alone on the XC3S400, fewer stimulus cycles).
    const app::SystemNetlist sys =
        smoke ? app::build_system_netlist(
                    {app::AppParams{}, soc::SoftIpBudgets{}, /*include_soft_ip=*/false})
              : app::build_system_netlist({});
    const fabric::PartName part =
        smoke ? fabric::PartName::XC3S400 : fabric::PartName::XC3S1000;
    const sim::ActivityMap activity =
        app::system_activity(sys.nl, kClockHz, {.cycles = smoke ? 64 : 256});

    par::ReallocateOptions options;
    options.net_count = 8;
    const RunResult ref =
        run_engine(&par::optimize_net_power_reference, sys.nl, part, activity, options);
    const RunResult inc =
        run_engine(&par::optimize_net_power, sys.nl, part, activity, options);

    const bool identical = inc.report == ref.report;
    const bool power_ok = ref.report.total_after_uw <= ref.report.total_before_uw;
    const double speedup = inc.wall_ms > 0.0 ? ref.wall_ms / inc.wall_ms : 0.0;

    Table table({"engine", "wall (ms)", "nets/s", "speedup"});
    table.add_row({"reference (oracle)", Table::num(ref.wall_ms, 1),
                   Table::num(nets_per_s(ref), 1), "1.0x"});
    table.add_row({"incremental", Table::num(inc.wall_ms, 1),
                   Table::num(nets_per_s(inc), 1), Table::num(speedup, 1) + "x"});
    std::cout << table.render();
    std::cout << "total dynamic power: " << Table::num(ref.report.total_before_uw * 1e-3)
              << " mW -> " << Table::num(ref.report.total_after_uw * 1e-3) << " mW\n";
    std::cout << "reports byte-identical to the oracle: " << (identical ? "yes" : "NO")
              << "\n";

    std::ofstream json("BENCH_par_reallocate.json");
    json << "{\n"
         << "  \"bench\": \"par_reallocate\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"scenario\": \""
         << (smoke ? "xc3s400_core_only" : "table2_xc3s1000_full_system") << "\",\n"
         << "  \"nets_optimized\": " << ref.report.nets.size() << ",\n"
         << "  \"reference\": {\"wall_ms\": " << ref.wall_ms
         << ", \"nets_per_s\": " << nets_per_s(ref) << "},\n"
         << "  \"incremental\": {\"wall_ms\": " << inc.wall_ms
         << ", \"nets_per_s\": " << nets_per_s(inc) << "},\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"total_before_uw\": " << ref.report.total_before_uw << ",\n"
         << "  \"total_after_uw\": " << ref.report.total_after_uw << ",\n"
         << "  \"critical_before_ps\": " << ref.report.critical_before_ps << ",\n"
         << "  \"critical_after_ps\": " << ref.report.critical_after_ps << ",\n"
         << "  \"overflow_count\": " << ref.overflow << ",\n"
         << "  \"reports_identical\": " << (identical ? "true" : "false") << "\n"
         << "}\n";

    if (!identical || !power_ok) {
        std::cerr << "FAIL: " << (!identical ? "the report differs from the oracle's"
                                             : "total power increased")
                  << "\n";
        return 1;
    }
    return 0;
}
