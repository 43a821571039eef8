// §4.3 back end: the library's fast paths vs the reference oracles, on the
// Table-2 scenario.
//
// Three stages are pinned. The incremental annealer (cached per-net bounding
// boxes, most moves rejected by a lower bound on their cost change) must give
// the same PlacerResult and slice positions as the full-rescan
// `anneal_reference`; the levelized timing analysis the same
// `critical_path_ps` as the worklist `analyze_timing_reference`; and the
// incremental reallocator (precomputed adjacency, scratch-route delta
// costing, cached net power, lazy timing) a byte-identical ReallocateReport
// to the naive `optimize_net_power_reference`. This bench times each pair,
// checks the equalities and the total-power invariant, prints how many
// anneal moves the bound decided and how many reallocation candidates the
// capacitance bound pruned, and writes BENCH_par_reallocate.json (with the
// host facts) to the working directory. Exit status is non-zero on any
// violation, so CI can run it as a check.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "refpga/common/table.hpp"
#include "refpga/par/placer_reference.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/reallocate_reference.hpp"
#include "refpga/par/timing_reference.hpp"

namespace {

using namespace refpga;

constexpr double kClockHz = 50e6;
constexpr double kAnnealEffort = 0.05;

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

using Annealer = par::PlacerResult (*)(par::Placement&, const par::PlacerOptions&,
                                       const sim::ActivityMap*);

struct AnnealRun {
    par::Placement placement;
    par::PlacerResult result;
    double wall_ms = 0.0;
};

/// Anneals a copy of `initial` the way benchkit::Implementation does and
/// times only the annealer (the oracle ignores the recorder).
AnnealRun run_annealer(Annealer annealer, const par::Placement& initial,
                       obs::Recorder* recorder = nullptr) {
    AnnealRun r{initial, {}, 0.0};
    par::PlacerOptions options;
    options.effort = kAnnealEffort;
    options.recorder = recorder;
    const auto t0 = std::chrono::steady_clock::now();
    r.result = annealer(r.placement, options, nullptr);
    r.wall_ms = ms_since(t0);
    return r;
}

/// Same PlacerResult and every slice on the same site.
bool same_anneal(const AnnealRun& a, const AnnealRun& b) {
    if (!(a.result == b.result)) return false;
    for (std::uint32_t i = 0; i < a.placement.design().slice_count(); ++i)
        if (!(a.placement.slice_pos(par::SliceId{i}) ==
              b.placement.slice_pos(par::SliceId{i})))
            return false;
    return true;
}

using Analyzer = par::TimingReport (*)(const par::RoutedDesign&, const par::CellDelays&);

struct TimingRun {
    par::TimingReport report;
    double wall_ms = 0.0;
};

TimingRun run_analyzer(Analyzer analyze, const par::RoutedDesign& routed) {
    const auto t0 = std::chrono::steady_clock::now();
    TimingRun r;
    r.report = analyze(routed, par::CellDelays{});
    r.wall_ms = ms_since(t0);
    return r;
}

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
    benchkit::Implementation impl(nl, part, kAnnealEffort);
    const auto t0 = std::chrono::steady_clock::now();
    RunResult r;
    r.report = optimize(impl.placement, impl.routed, activity, options);
    r.wall_ms = ms_since(t0);
    r.overflow = impl.routed.overflow_count();
    return r;
}

double speedup(double reference_ms, double library_ms) {
    return library_ms > 0.0 ? reference_ms / library_ms : 0.0;
}

double nets_per_s(const RunResult& r) {
    return r.wall_ms > 0.0
               ? static_cast<double>(r.report.nets.size()) / (r.wall_ms * 1e-3)
               : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    benchkit::print_header("PAR back end",
                           std::string("library fast paths vs reference oracles") +
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

    // Anneal, then route the library's placement and analyse its timing.
    const par::PackedDesign packed = par::pack(sys.nl);
    const fabric::Device device(part);
    par::Placement initial(device, sys.nl, packed);
    initial.place_initial();
    obs::Recorder recorder;
    const AnnealRun anneal_ref = run_annealer(&par::anneal_reference, initial);
    const AnnealRun anneal_lib = run_annealer(&par::anneal, initial, &recorder);
    const bool anneal_identical = same_anneal(anneal_lib, anneal_ref);

    par::RoutedDesign routed(anneal_lib.placement, par::ChannelCapacity{});
    routed.route_all(par::RouteMode::Performance);
    const TimingRun sta_ref = run_analyzer(&par::analyze_timing_reference, routed);
    const TimingRun sta_lib = run_analyzer(&par::analyze_timing, routed);
    const bool timing_identical =
        sta_lib.report.critical_path_ps == sta_ref.report.critical_path_ps;

    par::ReallocateOptions options;
    options.net_count = 8;
    const RunResult ref =
        run_engine(&par::optimize_net_power_reference, sys.nl, part, activity, options);
    options.recorder = &recorder;
    const RunResult inc =
        run_engine(&par::optimize_net_power, sys.nl, part, activity, options);

    const obs::MetricRegistry& m = recorder.metrics();
    const long moves_evaluated = std::lround(m.value("anneal.moves_evaluated_total"));
    const long moves_bound_rejected =
        std::lround(m.value("anneal.moves_bound_rejected_total"));
    const double bound_share =
        moves_evaluated > 0
            ? static_cast<double>(moves_bound_rejected) / static_cast<double>(moves_evaluated)
            : 0.0;
    const long candidates_evaluated =
        std::lround(m.value("realloc.candidates_evaluated_total"));
    const long candidates_pruned = std::lround(m.value("realloc.candidates_pruned_total"));

    const bool identical = inc.report == ref.report;
    const bool power_ok = ref.report.total_after_uw <= ref.report.total_before_uw;
    const double realloc_speedup = speedup(ref.wall_ms, inc.wall_ms);

    Table table({"stage", "oracle (ms)", "library (ms)", "speedup"});
    auto add = [&](const std::string& stage, double ref_ms, double lib_ms) {
        table.add_row({stage, Table::num(ref_ms, 1), Table::num(lib_ms, 1),
                       Table::num(speedup(ref_ms, lib_ms), 1) + "x"});
    };
    add("anneal", anneal_ref.wall_ms, anneal_lib.wall_ms);
    add("timing analysis", sta_ref.wall_ms, sta_lib.wall_ms);
    add("reallocate (" + std::to_string(ref.report.nets.size()) + " nets)", ref.wall_ms,
        inc.wall_ms);
    std::cout << table.render();
    std::cout << "reallocation: " << Table::num(nets_per_s(ref), 1) << " -> "
              << Table::num(nets_per_s(inc), 1) << " nets/s\n";
    std::cout << "anneal: " << anneal_lib.result.moves_tried << " moves, "
              << anneal_lib.result.moves_accepted << " accepted, HPWL "
              << anneal_lib.result.initial_cost << " -> " << anneal_lib.result.final_cost
              << "\n";
    std::cout << "anneal bound: " << moves_bound_rejected << " of " << moves_evaluated
              << " costed moves rejected without a rescan ("
              << Table::num(100.0 * bound_share, 1) << " %)\n";
    std::cout << "reallocation candidates: " << candidates_evaluated << " trial-routed, "
              << candidates_pruned << " pruned by the capacitance bound\n";
    std::cout << "critical path: " << Table::num(sta_lib.report.critical_path_ps, 1)
              << " ps\n";
    std::cout << "total dynamic power: " << Table::num(ref.report.total_before_uw * 1e-3)
              << " mW -> " << Table::num(ref.report.total_after_uw * 1e-3) << " mW\n";
    std::cout << "placement identical to the oracle's: "
              << (anneal_identical ? "yes" : "NO") << "\n";
    std::cout << "critical path identical to the oracle's: "
              << (timing_identical ? "yes" : "NO") << "\n";
    std::cout << "reports byte-identical to the oracle: " << (identical ? "yes" : "NO")
              << "\n";

    std::ofstream json("BENCH_par_reallocate.json");
    json << "{\n"
         << "  \"bench\": \"par_reallocate\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
         << "  \"compiler\": \"" << REFPGA_COMPILER << "\",\n"
         << "  \"build_type\": \"" << REFPGA_BUILD_TYPE << "\",\n"
         << "  \"scenario\": \""
         << (smoke ? "xc3s400_core_only" : "table2_xc3s1000_full_system") << "\",\n"
         << "  \"anneal\": {\"reference_ms\": " << anneal_ref.wall_ms
         << ", \"library_ms\": " << anneal_lib.wall_ms
         << ", \"moves_tried\": " << anneal_lib.result.moves_tried
         << ", \"moves_evaluated\": " << moves_evaluated
         << ", \"moves_bound_rejected\": " << moves_bound_rejected
         << ", \"bound_decided_share\": " << bound_share
         << ", \"identical\": " << (anneal_identical ? "true" : "false") << "},\n"
         << "  \"timing\": {\"reference_ms\": " << sta_ref.wall_ms
         << ", \"library_ms\": " << sta_lib.wall_ms
         << ", \"critical_path_ps\": " << sta_lib.report.critical_path_ps
         << ", \"identical\": " << (timing_identical ? "true" : "false") << "},\n"
         << "  \"nets_optimized\": " << ref.report.nets.size() << ",\n"
         << "  \"candidates_evaluated\": " << candidates_evaluated << ",\n"
         << "  \"candidates_pruned\": " << candidates_pruned << ",\n"
         << "  \"reference\": {\"wall_ms\": " << ref.wall_ms
         << ", \"nets_per_s\": " << nets_per_s(ref) << "},\n"
         << "  \"incremental\": {\"wall_ms\": " << inc.wall_ms
         << ", \"nets_per_s\": " << nets_per_s(inc) << "},\n"
         << "  \"speedup\": " << realloc_speedup << ",\n"
         << "  \"total_before_uw\": " << ref.report.total_before_uw << ",\n"
         << "  \"total_after_uw\": " << ref.report.total_after_uw << ",\n"
         << "  \"critical_before_ps\": " << ref.report.critical_before_ps << ",\n"
         << "  \"critical_after_ps\": " << ref.report.critical_after_ps << ",\n"
         << "  \"overflow_count\": " << ref.overflow << ",\n"
         << "  \"reports_identical\": " << (identical ? "true" : "false") << "\n"
         << "}\n";

    bool ok = true;
    auto fail = [&](const char* what) {
        std::cerr << "FAIL: " << what << "\n";
        ok = false;
    };
    if (!anneal_identical) fail("the placement differs from the oracle's");
    if (!timing_identical) fail("the critical path differs from the oracle's");
    if (!identical) fail("the report differs from the oracle's");
    if (!power_ok) fail("total power increased");
    return ok ? 0 : 1;
}
