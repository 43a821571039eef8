// Measurement-campaign driver: sweeps the design space (variant x part x
// config port x noise x upset rate) as independent scenarios and prints the
// aggregated report. The sweep runs on threads in this process, or, with
// --workers N, across N worker processes that each pull one batch at a
// time, with streaming aggregation, deadline supervision and
// checkpoint/resume.
//
//   ./build/examples/campaign                        # built-in 24-scenario sweep
//   ./build/examples/campaign --threads 4            # same report, faster
//   ./build/examples/campaign --json                 # machine-readable report
//   ./build/examples/campaign --spec examples/jobs/faults.json
//   ./build/examples/campaign --spec job.json --workers 4
//   ./build/examples/campaign --spec job.json --workers 2 --checkpoint run.ckpt
//   ./build/examples/campaign --spec job.json --workers 2 --checkpoint run.ckpt --resume
//   ./build/examples/campaign --workers 2 --http-port 9464   # /metrics
//   ./build/examples/campaign --metrics-json FILE    # obs metrics/trace to FILE
//
// A job file is the JSON form of svc::JobSpec (README "Sharded campaign
// service"); without --spec the built-in sweep runs: both hardware variants
// on three parts, two JCAP flavours and two noise levels, 6 cycles, seed
// 2008. --cycles and --seed override either. examples/jobs/ holds
// with_software.json (adds the MicroBlaze baseline), faults.json (upset
// rates against the configuration ports) and faults_harsh.json (plus load,
// flash and glitch faults).
//
// The report is byte-identical for any --threads and --workers value:
// scenarios carry their own deterministic seeds and the report renders in
// sweep order, so neither scheduling, batch interleaving, a crashed and
// reassigned worker nor a checkpoint resume can change a byte of it.
// Status lines go to stderr; the report goes to stdout or --out FILE.
// --metrics-json arms the refpga::obs recorder: its JSON is written to FILE
// ("-" = stdout) and embedded in the --json report under "observability"
// (wall-clock facts, so only present when asked for).
//
// Service mode (--workers N >= 1) takes the service flags listed in the
// usage text; they exit 2 with --workers 0. One deadline supervises the
// workers (--progress-timeout-ms, default 10000): a worker that holds a
// batch past it, or has not exited that long after the drain closed its
// input pipe, is killed, its
// batch is requeued and, within --max-restarts, its slot is reforked at
// once. --min-workers (at most --workers) fails fast when the fleet cannot
// be kept at strength; --partial-ok instead finishes with whatever committed
// and marks the report partial (with its exact missing index ranges).
//
// SIGINT/SIGTERM: in-process, unstarted scenarios are reported as
// "cancelled before start"; in service mode dispatch stops, in-flight
// batches drain into the checkpoint within the deadline and the rest stays
// uncommitted for --resume (the forked workers ignore both signals, so a
// terminal's Ctrl-C to the whole process group drains too). Either way the
// exit code is then 1.
//
// Exit codes: 0 ok; 1 failed scenarios or an incomplete run (a partial run
// under --partial-ok counts only its failures); 2 bad flag or job spec.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/svc/coordinator.hpp"
#include "refpga/svc/http.hpp"
#include "refpga/svc/job.hpp"

namespace {

using namespace refpga;

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

[[noreturn]] void usage_exit() {
    std::cerr
        << "usage: campaign [--spec FILE] [--cycles N] [--seed S] [--threads N]\n"
           "                [--workers N] [--json] [--out FILE] [--metrics-json FILE]\n"
           "  --workers 0 (default) runs in this process on --threads threads\n"
           "  (default: all cores); --workers N runs N worker processes with\n"
           "  --threads threads each (default 1) and takes the service flags:\n"
           "  batching:      [--batch N] [--checkpoint FILE [--resume]]\n"
           "                 [--fsync-every N] [--http-port P]\n"
           "  fleet policy:  [--progress-timeout-ms N] [--max-restarts N]\n"
           "                 [--min-workers N] [--partial-ok]\n"
           "  S is a 64-bit decimal seed; --threads, --cycles, --batch,\n"
           "  --progress-timeout-ms and --min-workers take 1..2^31-1\n"
           "  (--workers also 0); other N take 0..2^31-1.\n";
    std::exit(2);
}

[[noreturn]] void bad_value(const std::string& flag, const char* text) {
    std::cerr << "campaign: invalid value for " << flag << ": " << text << "\n";
    usage_exit();
}

/// Plain decimal integer in [lo, hi]: no sign, no spaces, no wrap-around.
int parse_int(const std::string& flag, const char* text, long long lo,
              long long hi = INT_MAX) {
    if (!std::isdigit(static_cast<unsigned char>(text[0]))) bad_value(flag, text);
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi) bad_value(flag, text);
    return static_cast<int>(v);
}

std::uint64_t parse_seed(const std::string& flag, const char* text) {
    try {
        return svc::parse_seed(text, flag);
    } catch (const svc::JobError& e) {
        std::cerr << "campaign: " << e.what() << "\n";
        usage_exit();
    }
}

struct Args {
    std::string spec_path;
    std::string out_path;
    std::string metrics_path;
    std::optional<int> cycles;
    std::optional<std::uint64_t> seed;
    std::optional<int> threads;
    int workers = 0;
    bool json = false;
    int http_port = -1;
    std::string service_flag;  ///< last service-only flag given, if any
    svc::CoordinatorOptions service;
};

Args parse_args(int argc, char** argv) {
    Args a;
    svc::CoordinatorOptions& o = a.service;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage_exit();
            return argv[++i];
        };
        const auto count = [&] { return parse_int(flag, value(), 1); };
        const auto natural = [&] { return parse_int(flag, value(), 0); };

        if (flag == "--spec") a.spec_path = value();
        else if (flag == "--cycles") a.cycles = count();
        else if (flag == "--seed") a.seed = parse_seed(flag, value());
        else if (flag == "--threads") a.threads = count();
        else if (flag == "--workers") a.workers = natural();
        else if (flag == "--json") a.json = true;
        else if (flag == "--out") a.out_path = value();
        else if (flag == "--metrics-json") a.metrics_path = value();
        else {
            a.service_flag = flag;
            if (flag == "--batch") o.batch = static_cast<std::uint64_t>(count());
            else if (flag == "--checkpoint") o.checkpoint_path = value();
            else if (flag == "--resume") o.resume = true;
            else if (flag == "--fsync-every")
                o.checkpoint_fsync_every_n = static_cast<std::uint64_t>(natural());
            else if (flag == "--http-port")
                a.http_port = parse_int(flag, value(), 0, 65535);
            else if (flag == "--progress-timeout-ms") o.progress_timeout_ms = count();
            else if (flag == "--max-restarts") o.max_worker_restarts = natural();
            else if (flag == "--min-workers") o.min_workers = count();
            else if (flag == "--partial-ok") o.partial_ok = true;
            else usage_exit();
        }
    }
    if (a.workers == 0 && !a.service_flag.empty()) {
        std::cerr << "campaign: " << a.service_flag << " requires --workers >= 1\n";
        usage_exit();
    }
    if (o.resume && o.checkpoint_path.empty()) {
        std::cerr << "campaign: --resume requires --checkpoint\n";
        usage_exit();
    }
    return a;
}

/// The sweep run without --spec: both hardware variants on three parts, two
/// JCAP flavours and two noise levels (24 scenarios).
svc::JobSpec builtin_job() {
    svc::JobSpec spec;
    spec.variants = {app::SystemVariant::MonolithicHw,
                     app::SystemVariant::ReconfiguredHw};
    spec.parts = {fabric::PartName::XC3S200, fabric::PartName::XC3S400,
                  fabric::PartName::XC3S1000};
    spec.ports = {fleet::PortKind::Jcap, fleet::PortKind::JcapAccelerated};
    spec.noise_levels = {1e-3, 5e-3};
    spec.cycles = 6;
    return spec;
}

svc::JobSpec load_job(const Args& a) {
    svc::JobSpec spec = builtin_job();
    if (!a.spec_path.empty()) {
        std::ifstream in(a.spec_path);
        if (!in) throw svc::JobError("cannot read job spec " + a.spec_path);
        std::ostringstream text;
        text << in.rdbuf();
        spec = svc::JobSpec::from_json(text.str());
    }
    if (a.cycles) spec.cycles = *a.cycles;
    if (a.seed) spec.campaign_seed = *a.seed;
    return spec;
}

/// Writes `text` plus a newline to `path`, or to stdout for an empty path.
bool write_text(const std::string& path, const std::string& text) {
    if (path.empty()) {
        std::cout << text << "\n";
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "campaign: cannot write " << path << "\n";
        return false;
    }
    out << text << "\n";
    return true;
}

/// The one output path of both modes: the obs JSON (when asked for) to
/// --metrics-json and into the JSON report, then the report itself.
bool write_outputs(const Args& a, fleet::CampaignReport& report,
                   const obs::Recorder& recorder) {
    if (!a.metrics_path.empty()) {
        const std::string obs_json = recorder.render_json();
        report.attach_metrics_json(obs_json);
        if (!write_text(a.metrics_path == "-" ? "" : a.metrics_path, obs_json))
            return false;
    }
    return write_text(a.out_path, a.json ? report.render_json() : report.render_text());
}

int run_in_process(const Args& a, const svc::JobSpec& spec, int threads) {
    obs::Recorder recorder;
    fleet::CampaignOptions options(threads);
    options.stream_block_ticks = spec.stream_block_ticks;
    options.stop = &g_stop;
    if (!a.metrics_path.empty()) options.recorder = &recorder;

    fleet::CampaignReport report =
        fleet::CampaignReport::from(fleet::CampaignRunner(options).run(spec.expand()));
    if (g_stop.load())
        std::cerr << "campaign: interrupted: unstarted scenarios reported as "
                     "\"cancelled before start\"\n";
    if (!write_outputs(a, report, recorder)) return 2;
    return report.failure_count() == 0 ? 0 : 1;
}

int run_service(const Args& a, const svc::JobSpec& spec, int threads) {
    obs::Recorder recorder;
    svc::HttpEndpoint http;
    svc::CoordinatorOptions options = a.service;
    options.workers = a.workers;
    options.worker_threads = threads;
    options.recorder = &recorder;
    options.stop = &g_stop;
    if (a.http_port >= 0) {
        http.listen(static_cast<std::uint16_t>(a.http_port));
        options.http = &http;
        std::cerr << "campaign: serving /metrics on 127.0.0.1:" << http.port() << "\n";
    }

    svc::Coordinator coordinator(spec, options);
    const svc::CoordinatorResult result = coordinator.run();

    std::cerr << "campaign: " << result.scenarios_committed << "/" << spec.grid_size()
              << " scenarios (" << result.scenarios_resumed << " resumed), "
              << result.shards_dispatched << " shards, "
              << result.shards_reassigned << " reassigned, "
              << result.worker_restarts << " restarts\n";
    if (result.deadline_kills + result.protocol_errors > 0)
        std::cerr << "campaign: faults: " << result.deadline_kills
                  << " deadline kills, " << result.protocol_errors
                  << " protocol errors\n";
    if (result.partial)
        std::cerr << "campaign: PARTIAL result accepted under --partial-ok; "
                     "missing ranges are listed in the report\n";
    else if (!result.completed)
        std::cerr << "campaign: incomplete: " << result.error << "\n";

    if (!write_outputs(a, coordinator.report(), recorder)) return 2;
    // A partial result under --partial-ok is the requested behavior, not an
    // error: exit reflects scenario failures only. Anything else short of
    // completion is a failure exit so scripts notice.
    if (!result.completed && !result.partial) return 1;
    return coordinator.report().failure_count() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    const int cores = static_cast<int>(std::thread::hardware_concurrency());
    const int threads = args.threads.value_or(args.workers == 0 ? std::max(cores, 1) : 1);
    try {
        const svc::JobSpec spec = load_job(args);
        std::cerr << "campaign: running " << spec.grid_size() << " scenarios on ";
        if (args.workers > 0) std::cerr << args.workers << " worker(s) x ";
        std::cerr << threads << " thread(s), " << spec.cycles
                  << " cycles each (seed " << spec.campaign_seed << ")\n";

        std::signal(SIGINT, handle_stop_signal);
        std::signal(SIGTERM, handle_stop_signal);
        return args.workers == 0 ? run_in_process(args, spec, threads)
                                 : run_service(args, spec, threads);
    } catch (const std::exception& e) {
        std::cerr << "campaign: " << e.what() << "\n";
        return 2;
    }
}
