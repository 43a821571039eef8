// Measurement-campaign driver: sweeps the design space (variant x part x
// config port x noise) as independent scenarios, runs them concurrently and
// prints the aggregated report.
//
//   ./build/examples/campaign                      # 24-scenario default sweep
//   ./build/examples/campaign --threads 4          # same results, faster
//   ./build/examples/campaign --json               # machine-readable report
//   ./build/examples/campaign --with-software      # add the MicroBlaze baseline
//   ./build/examples/campaign --metrics-json FILE  # obs metrics/trace to FILE
//
// The report is byte-identical for any --threads value: scenarios carry
// their own deterministic seeds, so scheduling cannot change the results.
// --metrics-json additionally arms the refpga::obs recorder: the obs JSON is
// written to FILE ("-" = stdout) and embedded in the --json report under
// "observability" (wall-clock facts, so only present when asked for).
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/obs/obs.hpp"

namespace {

// SIGINT/SIGTERM flip this flag; the campaign stops dispatching, records
// unstarted scenarios as "cancelled before start" failures, and the final
// report (plus the non-zero exit) shows exactly what was skipped.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

int parse_int(const char* text, const char* flag) {
    char* end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 0) {
        std::cerr << "invalid value for " << flag << ": " << text << "\n";
        std::exit(2);
    }
    return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace refpga;

    int threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
    int cycles = 6;
    std::uint64_t seed = 2008;
    bool json = false;
    bool with_software = false;
    std::string metrics_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--with-software") {
            with_software = true;
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = parse_int(argv[++i], "--threads");
        } else if (arg == "--cycles" && i + 1 < argc) {
            cycles = parse_int(argv[++i], "--cycles");
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = static_cast<std::uint64_t>(parse_int(argv[++i], "--seed"));
        } else if (arg == "--metrics-json" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else {
            std::cerr << "usage: campaign [--threads N] [--cycles N] [--seed S] "
                         "[--json] [--with-software] [--metrics-json FILE]\n";
            return 2;
        }
    }

    std::vector<app::SystemVariant> variants{app::SystemVariant::MonolithicHw,
                                             app::SystemVariant::ReconfiguredHw};
    if (with_software) variants.push_back(app::SystemVariant::Software);

    const std::vector<fleet::Scenario> sweep =
        fleet::SweepBuilder{}
            .variants(std::move(variants))
            .parts({fabric::PartName::XC3S200, fabric::PartName::XC3S400,
                    fabric::PartName::XC3S1000})
            .ports({fleet::PortKind::Jcap, fleet::PortKind::JcapAccelerated})
            .noise_levels({1e-3, 5e-3})
            .cycles(cycles)
            .campaign_seed(seed)
            .build();

    if (!json)
        std::cout << "running " << sweep.size() << " scenarios on " << threads
                  << " thread(s), " << cycles << " cycles each (seed " << seed
                  << ")\n\n";

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    obs::Recorder recorder;
    fleet::CampaignOptions options(threads);
    options.stop = &g_stop;
    if (!metrics_path.empty()) options.recorder = &recorder;

    const fleet::CampaignResult result =
        fleet::CampaignRunner(options).run(sweep);
    fleet::CampaignReport report = fleet::CampaignReport::from(result);

    if (!metrics_path.empty()) {
        const std::string obs_json = recorder.render_json();
        report.attach_metrics_json(obs_json);
        if (metrics_path == "-") {
            std::cout << obs_json << "\n";
        } else {
            std::ofstream out(metrics_path);
            if (!out) {
                std::cerr << "cannot write " << metrics_path << "\n";
                return 2;
            }
            out << obs_json << "\n";
        }
    }

    std::cout << (json ? report.render_json() : report.render_text()) << "\n";
    if (g_stop.load() && !json)
        std::cerr << "interrupted: unstarted scenarios reported as "
                     "\"cancelled before start\"\n";
    return result.failure_count() == 0 ? 0 : 1;
}
