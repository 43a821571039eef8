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
//
// It also runs the whole Table-2 job the way perfbench's table2_flow does
// (build, activity, pack, place, anneal, route, reallocate) and reports, per
// job, the heap allocations of the build, pack, route_all and reallocation
// stages (counted by this binary's operator new) and the destructor time of
// the routed design and of the system netlist, each the median of several
// jobs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/table.hpp"
#include "refpga/par/implementation.hpp"
#include "refpga/par/placer_reference.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/reallocate_reference.hpp"
#include "refpga/par/timing_reference.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Every heap allocation of this process, counted; the job profile reads the
// count around each stage.
void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

/// Anneals a copy of `initial` the way par::Implementation does and
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
    par::Implementation impl(nl, part, {.effort = kAnnealEffort});
    const auto t0 = std::chrono::steady_clock::now();
    RunResult r;
    r.report = optimize(impl.placement, impl.routed, activity, options);
    r.wall_ms = ms_since(t0);
    r.overflow = impl.routed.overflow_count();
    return r;
}

/// One Table-2 job's heap allocations per stage and teardown times.
struct JobProfile {
    long build_allocs = 0;
    long pack_allocs = 0;
    long route_allocs = 0;
    long realloc_allocs = 0;
    double build_ms = 0.0;
    double route_ms = 0.0;
    double realloc_ms = 0.0;
    double routed_teardown_ms = 0.0;
    double netlist_teardown_ms = 0.0;
};

/// Runs the job as perfbench's table2_flow does (seed 2008) and times the
/// two teardowns that follow its last stage.
JobProfile profile_job(const app::SystemNetlistOptions& system, fabric::PartName part,
                       int cycles) {
    JobProfile p;
    const auto allocs = [] { return g_allocations.load(std::memory_order_relaxed); };
    long a0 = allocs();
    auto t0 = std::chrono::steady_clock::now();
    std::optional<app::SystemNetlist> sys(app::build_system_netlist(system));
    p.build_ms = ms_since(t0);
    p.build_allocs = allocs() - a0;
    const sim::ActivityMap activity =
        app::system_activity(sys->nl, kClockHz, {.cycles = cycles});
    a0 = allocs();
    std::optional<par::PackedDesign> packed(par::pack(sys->nl));
    p.pack_allocs = allocs() - a0;
    const fabric::Device device(part);
    std::optional<par::Placement> placement(std::in_place, device, sys->nl, *packed);
    placement->place_initial();
    par::PlacerOptions placer;
    placer.seed = 2008;
    placer.effort = kAnnealEffort;
    (void)par::anneal(*placement, placer);
    a0 = allocs();
    t0 = std::chrono::steady_clock::now();
    std::optional<par::RoutedDesign> routed(std::in_place, *placement,
                                            par::ChannelCapacity{});
    routed->route_all(par::RouteMode::Performance);
    p.route_ms = ms_since(t0);
    p.route_allocs = allocs() - a0;
    par::ReallocateOptions options;
    options.net_count = 8;
    a0 = allocs();
    t0 = std::chrono::steady_clock::now();
    (void)par::optimize_net_power(*placement, *routed, activity, options);
    p.realloc_ms = ms_since(t0);
    p.realloc_allocs = allocs() - a0;

    t0 = std::chrono::steady_clock::now();
    routed.reset();
    p.routed_teardown_ms = ms_since(t0);
    placement.reset();
    packed.reset();
    t0 = std::chrono::steady_clock::now();
    sys.reset();
    p.netlist_teardown_ms = ms_since(t0);
    return p;
}

/// Field-wise median over the jobs (allocation counts do not vary).
JobProfile median_profile(std::vector<JobProfile> jobs) {
    const auto median = [&](auto field) {
        std::sort(jobs.begin(), jobs.end(),
                  [&](const JobProfile& a, const JobProfile& b) { return a.*field < b.*field; });
        return jobs[jobs.size() / 2].*field;
    };
    return {median(&JobProfile::build_allocs),        median(&JobProfile::pack_allocs),
            median(&JobProfile::route_allocs),        median(&JobProfile::realloc_allocs),
            median(&JobProfile::build_ms),            median(&JobProfile::route_ms),
            median(&JobProfile::realloc_ms),          median(&JobProfile::routed_teardown_ms),
            median(&JobProfile::netlist_teardown_ms)};
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
    const app::SystemNetlistOptions system =
        smoke ? app::SystemNetlistOptions{app::AppParams{}, soc::SoftIpBudgets{},
                                          /*include_soft_ip=*/false}
              : app::SystemNetlistOptions{};
    const fabric::PartName part =
        smoke ? fabric::PartName::XC3S400 : fabric::PartName::XC3S1000;
    const int cycles = smoke ? 64 : 256;

    // The job profile runs first, on a fresh heap.
    std::vector<JobProfile> jobs;
    for (int i = 0; i < (smoke ? 3 : 9); ++i) jobs.push_back(profile_job(system, part, cycles));
    const JobProfile job = median_profile(std::move(jobs));

    const app::SystemNetlist sys = app::build_system_netlist(system);
    const sim::ActivityMap activity =
        app::system_activity(sys.nl, kClockHz, {.cycles = cycles});

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

    Table profile({"job stage", "heap allocations", "wall (ms)"});
    profile.add_row({"build system netlist", std::to_string(job.build_allocs),
                     Table::num(job.build_ms, 2)});
    profile.add_row({"pack", std::to_string(job.pack_allocs), "-"});
    profile.add_row({"route_all", std::to_string(job.route_allocs),
                     Table::num(job.route_ms, 2)});
    profile.add_row({"reallocation", std::to_string(job.realloc_allocs),
                     Table::num(job.realloc_ms, 2)});
    profile.add_row({"destroy routed design", "-", Table::num(job.routed_teardown_ms, 2)});
    profile.add_row({"destroy system netlist", "-", Table::num(job.netlist_teardown_ms, 2)});
    std::cout << "\nTable-2 job (median of " << (smoke ? 3 : 9) << " jobs):\n"
              << profile.render();

    std::ofstream json("BENCH_par_reallocate.json");
    json << "{\n"
         << "  \"bench\": \"par_reallocate\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << benchkit::host_facts_json()
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
         << "  \"reports_identical\": " << (identical ? "true" : "false") << ",\n"
         << "  \"job\": {\"jobs\": " << (smoke ? 3 : 9)
         << ", \"allocations\": {\"build\": " << job.build_allocs
         << ", \"pack\": " << job.pack_allocs << ", \"route_all\": " << job.route_allocs
         << ", \"reallocation\": " << job.realloc_allocs << "}"
         << ", \"wall_ms\": {\"build\": " << job.build_ms
         << ", \"route_all\": " << job.route_ms << ", \"reallocation\": " << job.realloc_ms
         << "}, \"teardown_ms\": {\"routed_design\": " << job.routed_teardown_ms
         << ", \"system_netlist\": " << job.netlist_teardown_ms << "}}\n"
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
