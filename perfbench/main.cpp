// perfbench: the repo benchmark. Runs one workload, checks every job's
// output, and prints its metrics; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--phase setup|run] [--reference FILE] [--workdir DIR]
//             [--trace-dir DIR] [--git-sha SHA]
//
// --phase setup is one set-up round in a process of its own: compute the
// check references, build the inputs, run the first (cold) job, write the
// references to --reference and exit. run.py times such rounds from spawn
// to exit as setup_s.
//
// --phase run (the default) takes the references from --reference, or
// computes them itself when none is given, runs an untimed warm-up job and
// then timed jobs back to back for --seconds. --trace 0 reports the
// end-to-end metrics measured here (tracing off). --trace 1 is a separate
// run: it alternates untraced jobs with traced ones, records spans around
// every call into a layer's public API plus the layers' own obs counters,
// and reports the per-layer metrics. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct Entry {
    const char* name;
    const char* unit;
};

// Each end-to-end metric the measuring process reports, tracing off.
// setup_s is timed by run.py around the set-up processes.
constexpr Entry kEndToEnd[] = {
    {"job_s_p50", "s"},
    {"scenarios_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Each per-layer metric. Every workload reports all of them; a layer a
// workload leaves idle reads 0 (README.md maps each to the end-to-end metric
// it should move).
constexpr Entry kPerLayer[] = {
    {"app.build_system_netlist_s", "s"},
    {"app.system_activity_s", "s"},
    {"par.pack_s", "s"},
    {"fabric.device_s", "s"},
    {"par.place_initial_s", "s"},
    {"par.anneal_s", "s"},
    {"par.anneal_moves_tried", "count"},
    {"par.anneal_accept_ratio", "ratio"},
    {"par.route_all_s", "s"},
    {"par.route_overflow", "count"},
    {"par.optimize_net_power_s", "s"},
    {"par.realloc_candidates", "count"},
    {"par.realloc_commit_ratio", "ratio"},
    {"model.table2_dyn_before_uw", "uW"},
    {"model.table2_dyn_after_uw", "uW"},
    {"model.table2_critical_after_ps", "ps"},
    {"model.table2_nets_worsened", "count"},
    {"fleet.variant_fit_s", "s"},
    {"fleet.campaign_run_s", "s"},
    {"fleet.report_render_s", "s"},
    {"fleet.scenario_s_mean", "s"},
    {"fleet.parallel_efficiency", "ratio"},
    {"app.cycle_s_mean", "s"},
    {"analog.sample_share", "ratio"},
    {"analog.ticks", "count"},
    {"reconfig.loads", "count"},
    {"reconfig.bits_written", "count"},
    {"reconfig.swap_s", "s"},
    {"model.cycle_busy_ms_mean", "ms"},
    {"model.deadline_overrun_scenarios", "count"},
    {"svc.coordinator_run_s", "s"},
    {"svc.report_render_s", "s"},
    {"svc.parallel_efficiency", "ratio"},
    {"svc.shards_dispatched", "count"},
    {"svc.shards_stolen", "count"},
    {"svc.checkpoint_writes", "count"},
    {"svc.worker_restarts", "count"},
    {"svc.max_retained_rows", "count"},
    {"app.processing_share", "ratio"},
    {"fault.upsets_detected", "count"},
    {"fault.columns_repaired", "count"},
    {"fault.load_retries", "count"},
    {"app.fallback_cycles", "count"},
    {"trace.stage_coverage", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
};

// The fewest timed jobs a run makes however short --seconds is.
constexpr int kMinJobs = 4;
// A process still alive this long past its measuring window is hung; the
// alarm ends it (run.py then stops whatever it left behind).
constexpr unsigned kWatchdogSeconds = 120;

enum class Phase { Setup, Run };

struct Args {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 25.0;  // BENCHMARK.json run_seconds
    bool trace = false;
    Phase phase = Phase::Run;
    std::string reference;
    std::string workdir = ".";
    std::string trace_dir;
    std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
    std::cerr << "perfbench: " << error
              << "\nusage: perfbench --workload table2_flow|campaign_hw|"
                 "campaign_svc_mixed [--seed N] [--seconds S] [--trace 0|1] "
                 "[--phase setup|run] [--reference FILE] [--workdir DIR] "
                 "[--trace-dir DIR] [--git-sha SHA]\n";
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + std::string(flag));
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") args.workload = value;
            else if (flag == "--seed") args.seed = std::stoull(value);
            else if (flag == "--seconds") args.seconds = std::stod(value);
            else if (flag == "--trace") args.trace = std::stoi(value) != 0;
            else if (flag == "--phase" && (value == "setup" || value == "run"))
                args.phase = value == "setup" ? Phase::Setup : Phase::Run;
            else if (flag == "--reference") args.reference = value;
            else if (flag == "--workdir") args.workdir = value;
            else if (flag == "--trace-dir") args.trace_dir = value;
            else if (flag == "--git-sha") args.git_sha = value;
            else usage("unknown flag or value: " + std::string(flag) + " " + value);
        } catch (const std::logic_error&) {
            usage("bad value for " + std::string(flag) + ": " + value);
        }
    }
    if (args.workload.empty()) usage("--workload is required");
    if (!(args.seconds > 0.0 && args.seconds < 3600.0))
        usage("--seconds must be in (0, 3600)");
    if (args.phase == Phase::Setup && args.reference.empty())
        usage("--phase setup needs --reference");
    return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
    WorkloadOptions options;
    options.seed = args.seed;
    options.workdir = args.workdir;
    if (args.workload == "table2_flow") return make_table2_flow(options);
    if (args.workload == "campaign_hw") return make_campaign_hw(options);
    if (args.workload == "campaign_svc_mixed") return make_campaign_svc_mixed(options);
    usage("unknown workload " + args.workload);
}

[[noreturn]] void fatal(const std::string& error) {
    std::cerr << "perfbench: " << error << "\n";
    std::exit(2);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) fatal("cannot read " + path);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary);
    if (!(out << bytes) || !out.flush()) fatal("cannot write " + path);
}

/// Anonymous resident memory of this process now, in KiB: what a fork
/// without exec maps into each svc worker's RSS from the start.
long anon_rss_kb() {
    long size = 0, resident = 0, file_backed = 0;
    std::ifstream("/proc/self/statm") >> size >> resident >> file_backed;
    return (resident - file_backed) * (sysconf(_SC_PAGESIZE) / 1024);
}

/// Peak RSS of this process, plus how far the largest reaped child (an svc
/// worker) grew beyond the parent's memory it was forked with.
double peak_rss_mb(long parent_anon_kb) {
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    const long growth = std::max(0L, children.ru_maxrss - parent_anon_kb);
    return static_cast<double>(self.ru_maxrss + growth) / 1024.0;
}

/// Nearest-rank percentile `p` of sorted values.
double percentile(const std::vector<double>& sorted, double p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * sorted.size()));
    return sorted[rank == 0 ? 0 : rank - 1];
}

/// The highest percentile with at least ten jobs beyond it, or none.
std::string tail(std::vector<double> jobs) {
    std::sort(jobs.begin(), jobs.end());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
        if (jobs.size() * (1.0 - p / 100.0) >= 10.0) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "p%g %.6f s", p, percentile(jobs, p));
            return buf;
        }
    return "n/a (fewer than 20 jobs)";
}

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/// Prints each catalogued metric as a `metric` line, then the result JSON
/// as the last line of stdout.
void print_result(long attempted, long failed, const Entry* catalogue, std::size_t size,
                  const Values& metrics) {
    std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < size; ++i) {
        const Entry& e = catalogue[i];
        // A layer the workload leaves idle reads 0.
        const auto it = metrics.find(e.name);
        const double value = it != metrics.end() ? it->second : 0.0;
        std::cout << "metric " << e.name << " " << number(value) << " " << e.unit << "\n";
        json += std::string(i == 0 ? "" : ", ") + "\"" + e.name + "\": {\"value\": " +
                number(value) + ", \"unit\": \"" + e.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    alarm(kWatchdogSeconds +
          (args.phase == Phase::Run ? static_cast<unsigned>(std::ceil(args.seconds)) : 0));
    const std::unique_ptr<Workload> workload = make_workload(args);
    SpanLog log;
    SpanLog* const spans = args.trace ? &log : nullptr;

    std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
              << " held_out_seed=" << kHeldOutSeed << " trace=" << args.trace
              << " phase=" << (args.phase == Phase::Setup ? "setup" : "run")
              << " seconds=" << args.seconds << "\n"
              << "host nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " compiler=\""
              << PERFBENCH_COMPILER << "\" build_type=" << PERFBENCH_BUILD_TYPE
              << " git_sha=" << args.git_sha << "\n";

    long attempted = 0;
    long failed = 0;
    auto record = [&](const JobOutcome& outcome) {
        ++attempted;
        if (outcome.failures.empty()) return;
        ++failed;
        for (const std::string& f : outcome.failures)
            std::cout << "check failed: job " << attempted << ": " << f << "\n";
    };

    // A job that throws counts as failed; the run goes on.
    auto run_job = [&](SpanLog* job_spans) {
        try {
            return workload->run_job(job_spans);
        } catch (const std::exception& e) {
            JobOutcome outcome;
            outcome.failures.push_back(std::string("exception: ") + e.what());
            return outcome;
        }
    };

    if (args.phase == Phase::Setup) {
        const std::string reference = workload->reference(nullptr);
        workload->setup();
        record(run_job(nullptr));  // the first, cold job
        write_file(args.reference, reference);
        print_result(attempted, failed, nullptr, 0, {});
        return failed == 0 ? 0 : 1;
    }

    if (args.reference.empty())
        (void)workload->reference(spans);
    else
        workload->use_reference(read_file(args.reference));
    workload->setup();
    // The parent's memory that each svc worker starts with; sampled before
    // every job, as the coordinator forks its workers at the start of one.
    long parent_anon_kb = anon_rss_kb();
    record(run_job(nullptr));  // untimed warm-up job

    // Closed loop: one caller, jobs back to back. A traced run alternates
    // untraced and traced jobs, so the two job times compare directly.
    std::vector<double> untraced_s, traced_s;
    std::size_t scenarios = 0;
    const Clock::time_point window = Clock::now();
    for (int job = 0;; ++job) {
        if (job >= kMinJobs && seconds_since(window) >= args.seconds) break;
        SpanLog* const job_spans = job % 2 == 1 ? spans : nullptr;
        log.set_job(job);
        parent_anon_kb = std::max(parent_anon_kb, anon_rss_kb());
        const Clock::time_point start = Clock::now();
        JobOutcome outcome;
        {
            Scope root(job_spans, "job");
            outcome = run_job(job_spans);
        }
        (job_spans != nullptr ? traced_s : untraced_s).push_back(seconds_since(start));
        scenarios += outcome.scenarios;
        record(outcome);
    }
    const double window_s = seconds_since(window);

    Values model;
    workload->model_metrics(model);
    for (const auto& [name, value] : model)
        std::cout << "model " << name << " " << number(value) << "\n";
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(workload->report_digest()));
    std::cout << "model report_digest fnv1a:" << digest << "\n";

    Values metrics;
    if (args.trace) {
        workload->layer_metrics(log, metrics);
        metrics.insert(model.begin(), model.end());
        const double coverage = log.median_root_coverage();
        metrics["trace.stage_coverage"] = coverage;
        if (coverage < workload->min_stage_coverage()) {
            ++failed;
            std::cout << "check failed: stage spans cover " << number(coverage)
                      << " of a traced job, below " << workload->min_stage_coverage() << "\n";
        }
        metrics["obs.trace_overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0;
        if (!args.trace_dir.empty())
            write_file(args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json",
                       log.render_json());
    } else {
        metrics["job_s_p50"] = median(untraced_s);
        metrics["scenarios_per_s"] = static_cast<double>(scenarios) / window_s;
        metrics["peak_rss_mb"] = peak_rss_mb(parent_anon_kb);
        std::cout << "metric job_s_tail " << tail(untraced_s) << " (" << untraced_s.size()
                  << " jobs)\n";
    }
    std::cout << "metric fail_frac " << number(static_cast<double>(failed) / attempted)
              << " ratio (" << failed << " of " << attempted << " jobs)\n";

    if (args.trace)
        print_result(attempted, failed, kPerLayer, std::size(kPerLayer), metrics);
    else
        print_result(attempted, failed, kEndToEnd, std::size(kEndToEnd), metrics);
    return failed == 0 ? 0 : 1;
}
