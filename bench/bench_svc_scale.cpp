// svc scaling — sharded campaign throughput vs worker processes.
//
// The process-level analogue of bench_fleet_campaign: the same job is run
// through svc::Coordinator with 1, 2 and 4 forked workers (batch 1, so each
// worker pulls one scenario at a time) and scenarios/sec is reported
// against the single-worker run. The sweep is deliberately uniform-cost —
// one variant, one part, one port, N noise levels — so the speedup measures
// the service (fork + framing + commit overhead), not scenario skew.
//
// Every worker count must render the byte-identical report to the
// single-process CampaignRunner; that parity gate always applies, smoke
// included. The 2-worker speedup gate (>= 1.8x) also applies in smoke mode,
// on hosts with >= 2 cores, since process parallelism cannot beat the core
// count. The smoke grid's scenarios are too small to time that reliably:
// the whole 8-scenario grid runs in a few milliseconds, so the gate mostly
// weighs the fork and the framing of each batch against each other and its
// reading swings from run to run on a 4-vCPU host.
//
// Emits BENCH_svc_scale.json next to the binary; --json mirrors it to
// stdout. Exit status is non-zero on a parity violation or a failed
// speedup gate.
//
// --chaos switches to the recovery-overhead matrix instead: the same job
// runs once clean and once under each fault category (worker hang, mid-
// batch crash, torn frame, dropped frame, slow straggler), injected through
// the test-support svc::FaultScript, under one policy,
// a 150 ms deadline plus the restart budget. The hang and the dropped Batch
// frame leave a worker holding a batch it never commits, so only the
// deadline ends them. A straggler holds one batch at a time, so its row
// needs no policy of its own: the other worker pulls the rest of the grid.
// Every faulted run must still complete and render byte-identically to the
// single-process report — recovery cost is allowed to show up only as wall
// time, never as report drift. Emits BENCH_svc_chaos.json.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "refpga/common/table.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/svc/coordinator.hpp"
#include "refpga/svc/fault_script.hpp"

namespace {

using namespace refpga;

bool flag(int argc, char** argv, std::string_view name) {
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == name) return true;
    return false;
}

/// Uniform-cost job: every scenario differs only in tank noise, so each
/// worker's share costs the same and the speedup reflects the service.
svc::JobSpec scale_job(bool smoke) {
    svc::JobSpec spec;
    spec.variants = {app::SystemVariant::ReconfiguredHw};
    spec.parts = {fabric::PartName::XC3S200};
    spec.ports = {fleet::PortKind::Jcap};
    spec.noise_levels.clear();
    const int scenarios = smoke ? 8 : 24;
    for (int i = 0; i < scenarios; ++i)
        spec.noise_levels.push_back(1e-3 * (1.0 + 0.05 * i));
    spec.cycles = smoke ? 2 : 4;
    spec.campaign_seed = 2008;
    return spec;
}

struct Run {
    int workers = 0;
    double wall_s = 0.0;
    double scenarios_per_s = 0.0;
    double speedup = 1.0;
    bool byte_identical = false;
};

/// One row of the --chaos matrix: a fault category and what the run had to
/// do to survive it.
struct ChaosRun {
    std::string fault;
    double wall_s = 0.0;
    double overhead = 1.0;  ///< wall vs the clean run under the same policy
    bool completed = false;
    bool byte_identical = false;
    std::uint64_t restarts = 0;
    std::uint64_t deadline_kills = 0;
    std::uint64_t protocol_errors = 0;
};

/// The policy every chaos-matrix run (clean included) uses, so the overhead
/// column compares like with like.
svc::CoordinatorOptions chaos_base_options() {
    svc::CoordinatorOptions options;
    options.workers = 2;
    options.worker_threads = 1;
    options.batch = 1;
    options.progress_timeout_ms = 150;
    options.max_worker_restarts = 4;
    return options;
}

int run_chaos_matrix(const svc::JobSpec& spec, const std::string& reference_json,
                     bool smoke, bool echo_json) {
    using Hook = svc::FaultScript::Hook;
    using Action = svc::FaultScript::Action;
    svc::FaultScript hang(Hook::BeforeBatch, Action::Hang);
    hang.slot = 0;
    svc::FaultScript crash(Hook::AfterBatch, Action::Exit);
    svc::FaultScript torn(Hook::FrameWrite, Action::Tear);
    torn.slot = 0;
    svc::FaultScript drop(Hook::FrameWrite, Action::Drop);
    drop.slot = 0;
    svc::FaultScript slow(Hook::BeforeBatch, Action::Sleep);
    slow.slot = 0;
    slow.sleep_ms = 60;
    const std::pair<const char*, svc::FaultScript*> cases[] = {
        {"clean", nullptr},
        {"hang", &hang},
        {"crash-mid-batch", &crash},
        {"torn-frame", &torn},
        {"drop-frame", &drop},
        {"slow-straggler", &slow},
    };

    std::vector<ChaosRun> runs;
    double clean_wall = 0.0;
    bool all_ok = true;

    Table table({"fault", "wall (s)", "overhead", "restarts", "kills",
                 "report"});
    for (const auto& [name, faults] : cases) {
        svc::CoordinatorOptions options = chaos_base_options();
        options.worker_faults = faults;

        svc::Coordinator coordinator(spec, options);
        const auto begin = std::chrono::steady_clock::now();
        const svc::CoordinatorResult result = coordinator.run();
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
                .count();

        ChaosRun run;
        run.fault = name;
        run.wall_s = seconds;
        if (run.fault == "clean") clean_wall = seconds;
        run.overhead = clean_wall > 0.0 ? seconds / clean_wall : 1.0;
        run.completed = result.completed;
        run.byte_identical =
            result.completed &&
            coordinator.report().render_json() == reference_json;
        run.restarts = result.worker_restarts;
        run.deadline_kills = result.deadline_kills;
        run.protocol_errors = result.protocol_errors;
        all_ok = all_ok && run.completed && run.byte_identical;
        runs.push_back(run);
        table.add_row({run.fault, Table::num(seconds, 3),
                       Table::num(run.overhead, 2) + "x",
                       std::to_string(run.restarts),
                       std::to_string(run.deadline_kills),
                       !run.completed        ? "INCOMPLETE"
                       : run.byte_identical ? "identical"
                                            : "DIFFERS"});
    }
    std::cout << table.render();
    std::cout << "all faulted runs byte-identical to single-process report: "
              << (all_ok ? "yes" : "NO — RECOVERY BUG") << "\n";

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"svc_chaos\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"scenarios\": " << spec.grid_size() << ",\n"
       << "  \"faults\": [";
    for (std::size_t i = 0; i < runs.size(); ++i)
        js << (i > 0 ? ", " : "") << "{\"fault\": \"" << runs[i].fault
           << "\", \"wall_s\": " << runs[i].wall_s
           << ", \"overhead_vs_clean\": " << runs[i].overhead
           << ", \"completed\": " << (runs[i].completed ? "true" : "false")
           << ", \"worker_restarts\": " << runs[i].restarts
           << ", \"deadline_kills\": " << runs[i].deadline_kills
           << ", \"protocol_errors\": " << runs[i].protocol_errors
           << ", \"report_byte_identical\": "
           << (runs[i].byte_identical ? "true" : "false") << "}";
    js << "],\n"
       << "  \"parity_ok\": " << (all_ok ? "true" : "false") << "\n"
       << "}\n";
    std::ofstream("BENCH_svc_chaos.json") << js.str();
    if (echo_json) std::cout << js.str();

    if (!all_ok) {
        std::cerr << "FAIL: a faulted run did not complete or its report "
                     "differs from the single-process report\n";
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    const bool echo_json = flag(argc, argv, "--json");
    const bool chaos = flag(argc, argv, "--chaos");
    benchkit::print_header(
        chaos ? "svc chaos" : "svc scale",
        std::string(chaos ? "recovery overhead under injected faults"
                          : "sharded campaign vs worker processes") +
            (smoke ? " [smoke]" : ""));

    const svc::JobSpec spec = scale_job(smoke);
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw < 1) hw = 1;

    // Single-process reference: the byte-identity target for every worker
    // count, and a warm-up so the fork()ed children inherit paged-in code.
    fleet::CampaignOptions reference_options(1);
    reference_options.stream_block_ticks = spec.stream_block_ticks;
    const std::string reference_json =
        fleet::CampaignReport::from(
            fleet::CampaignRunner(reference_options).run(spec.expand()))
            .render_json();

    if (chaos) return run_chaos_matrix(spec, reference_json, smoke, echo_json);

    std::vector<Run> runs;
    double single_rate = 0.0;
    double speedup_at_2 = 0.0;
    bool parity_ok = true;

    Table table({"workers", "wall (s)", "scenarios/sec", "speedup vs 1",
                 "report"});
    for (const int workers : {1, 2, 4}) {
        svc::CoordinatorOptions options;
        options.workers = workers;
        options.worker_threads = 1;
        options.batch = 1;
        svc::Coordinator coordinator(spec, options);

        const auto begin = std::chrono::steady_clock::now();
        const svc::CoordinatorResult result = coordinator.run();
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
                .count();
        if (!result.completed) {
            std::cerr << "FAIL: " << workers << "-worker run did not complete: "
                      << result.error << "\n";
            return 1;
        }

        Run run;
        run.workers = workers;
        run.wall_s = seconds;
        run.scenarios_per_s = static_cast<double>(spec.grid_size()) / seconds;
        if (workers == 1) single_rate = run.scenarios_per_s;
        run.speedup = single_rate > 0.0 ? run.scenarios_per_s / single_rate : 1.0;
        if (workers == 2) speedup_at_2 = run.speedup;
        run.byte_identical = coordinator.report().render_json() == reference_json;
        parity_ok = parity_ok && run.byte_identical;
        runs.push_back(run);
        table.add_row({std::to_string(workers), Table::num(seconds, 3),
                       Table::num(run.scenarios_per_s, 2),
                       Table::num(run.speedup, 2) + "x",
                       run.byte_identical ? "identical" : "DIFFERS"});
    }
    std::cout << table.render();
    std::cout << "hardware concurrency: " << hw << "\n";
    std::cout << "all worker counts byte-identical to single-process report: "
              << (parity_ok ? "yes" : "NO — DETERMINISM BUG") << "\n";

    const bool gate_evaluated = hw >= 2;
    if (!gate_evaluated)
        std::cout << "2-worker speedup gate skipped: single-core host cannot "
                     "run workers in parallel\n";

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"svc_scale\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"scenarios\": " << spec.grid_size() << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"workers\": [";
    for (std::size_t i = 0; i < runs.size(); ++i)
        js << (i > 0 ? ", " : "") << "{\"workers\": " << runs[i].workers
           << ", \"wall_s\": " << runs[i].wall_s
           << ", \"scenarios_per_s\": " << runs[i].scenarios_per_s
           << ", \"speedup_vs_1\": " << runs[i].speedup
           << ", \"report_byte_identical\": "
           << (runs[i].byte_identical ? "true" : "false") << "}";
    js << "],\n"
       << "  \"two_worker_speedup\": " << speedup_at_2 << ",\n"
       << "  \"speedup_gate_evaluated\": " << (gate_evaluated ? "true" : "false")
       << ",\n"
       << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n"
       << "}\n";
    std::ofstream("BENCH_svc_scale.json") << js.str();
    if (echo_json) std::cout << js.str();

    if (!parity_ok) {
        std::cerr << "FAIL: a sharded run's report differs from the "
                     "single-process report\n";
        return 1;
    }
    // Unlike the timing gates elsewhere, this one holds in smoke mode too,
    // although the smoke grid runs in a few milliseconds and its reading is
    // dominated by the fork and the framing (see the header).
    if (gate_evaluated && speedup_at_2 < 1.8) {
        std::cerr << "FAIL: 2-worker speedup " << speedup_at_2
                  << "x is below the 1.8x target on a " << hw << "-core host\n";
        return 1;
    }
    return 0;
}
