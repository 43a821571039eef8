// Observability overhead gate: the refpga::obs contract is that compiled-in
// instrumentation is free until someone attaches an enabled recorder.
//
// Three configurations drive the same sinus-generator delta-sigma bit stream
// through FrontEnd::run_block_ds (the bench_frontend_stream hot path, block
// 4096):
//   bare     — no recorder attached (the seed baseline);
//   disabled — recorder attached but disabled (what every production build
//              pays for having the hooks compiled in);
//   enabled  — recorder attached and recording (the actual cost of metrics).
// Each configuration is timed best-of-N with a fresh front end per rep, so
// scheduler noise shrinks the spread instead of inflating one side.
//
// The gate (full mode only; smoke workloads are too small to time reliably
// on loaded CI machines): disabled throughput must stay within 2% of bare.
// A second, non-gating section runs a few MeasurementSystem cycles with an
// enabled recorder and prints the harvest — the cycle/reconfig/frontend
// metric taxonomy documented in DESIGN.md.
//
// Emits BENCH_obs_overhead.json next to the binary; --json mirrors it to
// stdout.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "refpga/analog/frontend.hpp"
#include "refpga/analog/sample_block.hpp"
#include "refpga/common/table.hpp"
#include "refpga/obs/obs.hpp"

namespace {

using namespace refpga;

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kBlockTicks = 4096;

bool flag(int argc, char** argv, std::string_view name) {
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == name) return true;
    return false;
}

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

analog::FrontEnd make_frontend() {
    analog::FrontEndConfig config;
    config.tank.noise_rms_v = 0.0;  // pipeline-bound, like the headline gate
    analog::FrontEnd frontend(config, kSeed);
    frontend.tank().set_level(0.6);
    return frontend;
}

struct Config {
    std::string label;
    obs::Recorder* recorder = nullptr;  ///< nullptr = bare
    double best_wall_ms = 0.0;
    double pcm_per_s = 0.0;
    std::int64_t pcm_checksum = 0;  ///< must match across configurations
};

void time_config(Config& cfg, const std::vector<std::uint8_t>& drive,
                 std::size_t pcm_pairs, int reps) {
    analog::SampleBlock out;
    const auto stream = [&](analog::FrontEnd& fe) {
        out.clear_pcm();
        out.reserve_pcm(drive.size() / 5);
        for (std::size_t at = 0; at < drive.size();) {
            const std::size_t n =
                std::min<std::size_t>(kBlockTicks, drive.size() - at);
            fe.run_block_ds({drive.data() + at, n}, out);
            at += n;
        }
    };
    {
        analog::FrontEnd warm = make_frontend();  // page in code paths
        if (cfg.recorder != nullptr) warm.set_recorder(cfg.recorder);
        stream(warm);
    }
    cfg.best_wall_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
        analog::FrontEnd frontend = make_frontend();
        if (cfg.recorder != nullptr) frontend.set_recorder(cfg.recorder);
        const double t0 = now_ms();
        stream(frontend);
        const double wall = now_ms() - t0;
        if (r == 0 || wall < cfg.best_wall_ms) cfg.best_wall_ms = wall;
    }
    cfg.pcm_per_s = cfg.best_wall_ms > 0.0
                        ? static_cast<double>(pcm_pairs) / (cfg.best_wall_ms * 1e-3)
                        : 0.0;
    cfg.pcm_checksum = 0;
    for (const std::int32_t v : out.meas) cfg.pcm_checksum += v;
    for (const std::int32_t v : out.ref) cfg.pcm_checksum -= v;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    const bool echo_json = flag(argc, argv, "--json");
    benchkit::print_header("obs overhead",
                           std::string("instrumentation cost on the streaming "
                                       "front end") +
                               (smoke ? " [smoke]" : ""));

    const std::size_t ticks = smoke ? 200'000 : 8'000'000;
    const int reps = smoke ? 3 : 5;
    std::vector<std::uint8_t> drive(ticks);
    app::SinusGenModel sinusgen;
    sinusgen.run_block_bits(ticks, drive.data());
    const std::size_t pcm_pairs =
        ticks / static_cast<std::size_t>(analog::FrontEndConfig{}.adc_decimation);

    obs::Recorder disabled_recorder(/*enabled=*/false);
    obs::Recorder enabled_recorder;

    Config bare{"bare (no recorder)", nullptr};
    Config disabled{"attached, disabled", &disabled_recorder};
    Config enabled{"attached, enabled", &enabled_recorder};
    // Interleaving would be fairer still, but best-of-reps already clips the
    // scheduler tail; measure in a fixed order so runs are comparable.
    time_config(bare, drive, pcm_pairs, reps);
    time_config(disabled, drive, pcm_pairs, reps);
    time_config(enabled, drive, pcm_pairs, reps);

    const bool parity_ok = bare.pcm_checksum == disabled.pcm_checksum &&
                           bare.pcm_checksum == enabled.pcm_checksum;
    const auto regression_pct = [&](const Config& cfg) {
        return bare.pcm_per_s > 0.0
                   ? 100.0 * (1.0 - cfg.pcm_per_s / bare.pcm_per_s)
                   : 0.0;
    };

    Table table({"configuration", "wall (ms)", "PCM pairs/s", "vs bare"});
    for (const Config* cfg : {&bare, &disabled, &enabled})
        table.add_row({cfg->label, Table::num(cfg->best_wall_ms, 1),
                       Table::num(cfg->pcm_per_s, 0),
                       cfg == &bare ? "baseline"
                                    : Table::num(regression_pct(*cfg), 2) + "%"});
    std::cout << table.render();
    std::cout << "PCM checksums identical across configurations: "
              << (parity_ok ? "yes" : "NO") << "\n";
    std::cout << "enabled-recorder harvest: "
              << enabled_recorder.metrics().value("frontend.ticks_total")
              << " ticks, "
              << enabled_recorder.metrics().value("frontend.blocks_total")
              << " blocks recorded\n";

    // Non-gating showcase: what an instrumented measurement cycle reports.
    {
        obs::Recorder recorder;
        app::SystemOptions options;
        options.recorder = &recorder;
        app::MeasurementSystem system(options, 11);
        system.set_true_level(0.5);
        for (int c = 0; c < 3; ++c) (void)system.run_cycle();
        std::cout << "\nthree instrumented measurement cycles:\n"
                  << recorder.metrics().render_text();
    }

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"obs_overhead\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"modulator_ticks\": " << ticks << ",\n"
       << "  \"pcm_pairs\": " << pcm_pairs << ",\n"
       << "  \"bare_pcm_per_s\": " << bare.pcm_per_s << ",\n"
       << "  \"disabled_pcm_per_s\": " << disabled.pcm_per_s << ",\n"
       << "  \"enabled_pcm_per_s\": " << enabled.pcm_per_s << ",\n"
       << "  \"disabled_regression_pct\": " << regression_pct(disabled) << ",\n"
       << "  \"enabled_regression_pct\": " << regression_pct(enabled) << ",\n"
       << "  \"gate_pct\": 2.0,\n"
       << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n"
       << "}\n";
    std::ofstream("BENCH_obs_overhead.json") << js.str();
    if (echo_json) std::cout << js.str();

    if (!parity_ok) {
        std::cerr << "FAIL: attaching a recorder changed the PCM stream\n";
        return 1;
    }
    // The timing gate only runs in full mode: smoke workloads are too small
    // to time reliably on loaded CI machines (parity still gates above).
    if (!smoke && regression_pct(disabled) > 2.0) {
        std::cerr << "FAIL: disabled instrumentation costs "
                  << regression_pct(disabled) << "% (> 2% gate)\n";
        return 1;
    }
    return 0;
}
