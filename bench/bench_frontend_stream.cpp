// Block-streaming front end: throughput and cycle latency vs block size.
//
// The Fig. 4 sample window (256 PCM pairs at 3.2 MHz plus two settling
// windows, i.e. 3840 modulator ticks per cycle) is the hot loop of every
// cycle and every campaign scenario. This bench drives the same waveform
// through the per-sample oracle (analog::FrontEndReference from the
// test-support library, one component step() after another), the
// per-sample API (block-of-1 wrappers) and run_block_ds at several block
// sizes, checks the PCM streams are bit-identical, and measures samples/s
// plus the end-to-end MeasurementSystem cycle latency vs stream_block_ticks.
//
// Two plant conditions are measured. With tank noise off the window is
// pipeline-bound and the fused kernel's speedup over the oracle is the
// headline (the 3x gate). With noise on, every tick adds two ziggurat
// Gaussians in the oracle's draw order (meas, then ref); one draw is usually
// one xoshiro256** output, so the noisy kernel must stay within 2.5x of the
// noise-off kernel's wall time (the noise-cost gate).
//
// Emits BENCH_frontend_stream.json next to the binary; --json mirrors it to
// stdout. Exit status is non-zero on a parity violation or, in full mode, on
// a noise-off speedup below 3x or a noisy/noise-off wall-time ratio above
// 2.5x, so CI can run it as a check.
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
#include "refpga/analog/frontend_reference.hpp"
#include "refpga/analog/sample_block.hpp"
#include "refpga/common/table.hpp"

namespace {

using namespace refpga;

constexpr std::uint64_t kSeed = 42;

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

struct Throughput {
    std::string label;
    double wall_ms = 0.0;
    double pcm_per_s = 0.0;
    int block_ticks = 0;  ///< 0 = oracle, 1 = per-sample API
};

/// One plant condition's full measurement set.
struct Suite {
    double noise_rms = 0.0;
    Throughput reference;
    Throughput api;
    std::vector<Throughput> blocks;
    bool parity_ok = true;

    [[nodiscard]] const Throughput& best() const {
        return *std::max_element(blocks.begin(), blocks.end(),
                                 [](const Throughput& a, const Throughput& b) {
                                     return a.pcm_per_s < b.pcm_per_s;
                                 });
    }
    [[nodiscard]] double speedup_vs_reference() const {
        return reference.pcm_per_s > 0.0 ? best().pcm_per_s / reference.pcm_per_s
                                         : 0.0;
    }
    [[nodiscard]] double speedup_vs_api() const {
        return api.pcm_per_s > 0.0 ? best().pcm_per_s / api.pcm_per_s : 0.0;
    }
};

/// A front end (FrontEnd or the FrontEndReference oracle) with the bench's
/// plant: tank level 0.6, seed kSeed.
template <typename FrontEndT>
FrontEndT make_frontend(double noise_rms) {
    analog::FrontEndConfig config;
    config.tank.noise_rms_v = noise_rms;
    FrontEndT frontend(config, kSeed);
    frontend.tank().set_level(0.6);
    return frontend;
}

/// Streams `drive` through run(frontend, drive) and reports PCM pairs/s.
template <typename FrontEndT = analog::FrontEnd, typename Run>
Throughput time_run(const std::string& label, int block_ticks, double noise_rms,
                    const std::vector<std::uint8_t>& drive, std::size_t pcm_pairs,
                    Run run) {
    Throughput t;
    t.label = label;
    t.block_ticks = block_ticks;
    {
        FrontEndT warm = make_frontend<FrontEndT>(noise_rms);  // page in code paths
        run(warm, drive);
    }
    FrontEndT frontend = make_frontend<FrontEndT>(noise_rms);
    const double t0 = now_ms();
    run(frontend, drive);
    t.wall_ms = now_ms() - t0;
    t.pcm_per_s =
        t.wall_ms > 0.0 ? static_cast<double>(pcm_pairs) / (t.wall_ms * 1e-3) : 0.0;
    return t;
}

Suite run_suite(double noise_rms, const std::vector<std::uint8_t>& drive,
                std::size_t pcm_pairs, const std::vector<int>& block_sizes) {
    Suite suite;
    suite.noise_rms = noise_rms;

    // The per-sample oracle (component-by-component steps): the parity
    // baseline and the base of the fused kernel's speedup.
    analog::SampleBlock baseline_pcm;
    suite.reference = time_run<analog::FrontEndReference>(
        "per-sample oracle", 0, noise_rms, drive, pcm_pairs,
        [&baseline_pcm](analog::FrontEndReference& fe,
                        const std::vector<std::uint8_t>& d) {
            baseline_pcm.clear_pcm();
            baseline_pcm.reserve_pcm(d.size() / 5);
            for (const std::uint8_t bit : d)
                if (const auto pcm = fe.step_ds_bit(bit != 0)) {
                    baseline_pcm.meas.push_back(pcm->meas);
                    baseline_pcm.ref.push_back(pcm->ref);
                }
        });

    // Per-sample public API: block-of-1 wrappers over the fused kernel.
    suite.api = time_run(
        "per-sample API (block of 1)", 1, noise_rms, drive, pcm_pairs,
        [](analog::FrontEnd& fe, const std::vector<std::uint8_t>& d) {
            std::int64_t sink = 0;
            for (const std::uint8_t bit : d)
                if (const auto pcm = fe.step_ds_bit(bit != 0))
                    sink += pcm->meas + pcm->ref;
            if (sink == 0x7fffffff) std::cout << "";  // keep the loop live
        });

    for (const int bs : block_sizes) {
        analog::SampleBlock out;
        suite.blocks.push_back(time_run(
            "run_block " + std::to_string(bs), bs, noise_rms, drive, pcm_pairs,
            [bs, &out](analog::FrontEnd& fe, const std::vector<std::uint8_t>& d) {
                out.clear_pcm();
                out.reserve_pcm(d.size() / 5);
                for (std::size_t at = 0; at < d.size();) {
                    const std::size_t n = std::min<std::size_t>(
                        static_cast<std::size_t>(bs), d.size() - at);
                    fe.run_block_ds({d.data() + at, n}, out);
                    at += n;
                }
            }));
        if (out.meas != baseline_pcm.meas || out.ref != baseline_pcm.ref) {
            suite.parity_ok = false;
            std::cerr << "PARITY VIOLATION at block size " << bs << " (noise "
                      << noise_rms << ")\n";
        }
    }
    return suite;
}

/// Mean MeasurementSystem::run_cycle wall time at one stream_block_ticks.
double cycle_ms(int stream_block_ticks, int cycles) {
    app::SystemOptions options;
    options.stream_block_ticks = stream_block_ticks;
    app::MeasurementSystem system(options, 11);
    system.set_true_level(0.5);
    (void)system.run_cycle();  // warm-up: first cycle grows the block buffers
    const double t0 = now_ms();
    for (int c = 0; c < cycles; ++c) (void)system.run_cycle();
    return (now_ms() - t0) / cycles;
}

void print_suite(const Suite& suite) {
    std::cout << "tank noise " << suite.noise_rms << " V rms:\n";
    Table table({"path", "wall (ms)", "PCM pairs/s", "speedup"});
    table.add_row({suite.reference.label, Table::num(suite.reference.wall_ms, 1),
                   Table::num(suite.reference.pcm_per_s, 0), "1.0x"});
    table.add_row({suite.api.label, Table::num(suite.api.wall_ms, 1),
                   Table::num(suite.api.pcm_per_s, 0),
                   Table::num(suite.api.pcm_per_s / suite.reference.pcm_per_s, 1) +
                       "x"});
    for (const Throughput& t : suite.blocks)
        table.add_row({t.label, Table::num(t.wall_ms, 1), Table::num(t.pcm_per_s, 0),
                       Table::num(t.pcm_per_s / suite.reference.pcm_per_s, 1) + "x"});
    std::cout << table.render();
}

void json_suite(std::ostringstream& js, const Suite& suite) {
    js << "{\"noise_rms_v\": " << suite.noise_rms
       << ", \"reference\": {\"wall_ms\": " << suite.reference.wall_ms
       << ", \"pcm_per_s\": " << suite.reference.pcm_per_s
       << "}, \"per_sample_api\": {\"wall_ms\": " << suite.api.wall_ms
       << ", \"pcm_per_s\": " << suite.api.pcm_per_s << "}, \"blocks\": [";
    for (std::size_t i = 0; i < suite.blocks.size(); ++i)
        js << (i > 0 ? ", " : "") << "{\"block_ticks\": " << suite.blocks[i].block_ticks
           << ", \"wall_ms\": " << suite.blocks[i].wall_ms
           << ", \"pcm_per_s\": " << suite.blocks[i].pcm_per_s << "}";
    js << "], \"best_block_ticks\": " << suite.best().block_ticks
       << ", \"speedup_vs_reference\": " << suite.speedup_vs_reference()
       << ", \"speedup_vs_per_sample_api\": " << suite.speedup_vs_api()
       << ", \"parity_ok\": " << (suite.parity_ok ? "true" : "false") << "}";
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    const bool echo_json = flag(argc, argv, "--json");
    benchkit::print_header("frontend stream",
                           std::string("block pipeline vs per-sample oracle") +
                               (smoke ? " [smoke]" : ""));

    // The drive is the real sinus generator's delta-sigma bit stream — the
    // same stimulus run_cycle feeds the front end (Fig. 4 sample window).
    const std::size_t ticks = smoke ? 200'000 : 8'000'000;
    std::vector<std::uint8_t> drive(ticks);
    app::SinusGenModel sinusgen{app::AppParams{}};
    sinusgen.run_block_bits(ticks, drive.data());
    const std::size_t pcm_pairs =
        ticks / static_cast<std::size_t>(analog::FrontEndConfig{}.adc_decimation);

    const std::vector<int> block_sizes = {16, 64, 256, 1024, 4096};
    const Suite quiet = run_suite(0.0, drive, pcm_pairs, block_sizes);
    const Suite noisy = run_suite(1e-3, drive, pcm_pairs, block_sizes);
    print_suite(quiet);
    print_suite(noisy);

    // End-to-end cycle latency (sampling + processing + reconfig) vs block
    // size — what a fleet campaign actually pays per cycle.
    const int cycles = smoke ? 3 : 20;
    const std::vector<int> cycle_settings = {1, 256, 4096};
    std::vector<double> cycle_wall_ms;
    Table cycle_table({"stream_block_ticks", "cycle wall (ms)"});
    for (const int setting : cycle_settings) {
        cycle_wall_ms.push_back(cycle_ms(setting, cycles));
        cycle_table.add_row({std::to_string(setting), Table::num(cycle_wall_ms.back(), 2)});
    }
    std::cout << cycle_table.render();
    // Cost of the tank noise: best noisy block time over best noise-off
    // block time, both measured in this process.
    const double noise_cost = noisy.best().wall_ms / quiet.best().wall_ms;
    std::cout << "noise-off: " << Table::num(quiet.speedup_vs_reference(), 2)
              << "x vs per-sample oracle (best " << quiet.best().label << ", "
              << Table::num(quiet.best().pcm_per_s * 1e-6, 2) << " M pairs/s)\n";
    std::cout << "noise-on:  " << Table::num(noisy.speedup_vs_reference(), 2)
              << "x vs per-sample oracle; " << Table::num(noise_cost, 2)
              << "x the noise-off wall time (best " << noisy.best().label << ")\n";
    std::cout << "PCM bit-identical across all block sizes: "
              << (quiet.parity_ok && noisy.parity_ok ? "yes" : "NO") << "\n";

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"frontend_stream\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"modulator_ticks\": " << ticks << ",\n"
       << "  \"pcm_pairs\": " << pcm_pairs << ",\n"
       << "  \"noise_off\": ";
    json_suite(js, quiet);
    js << ",\n  \"noise_on\": ";
    json_suite(js, noisy);
    js << ",\n  \"cycle_latency_ms\": [";
    for (std::size_t i = 0; i < cycle_settings.size(); ++i)
        js << (i > 0 ? ", " : "") << "{\"stream_block_ticks\": " << cycle_settings[i]
           << ", \"wall_ms\": " << cycle_wall_ms[i] << "}";
    js << "],\n"
       << "  \"speedup_sample_window\": " << quiet.speedup_vs_reference() << ",\n"
       << "  \"noise_cost_ratio\": " << noise_cost << ",\n"
       << "  \"parity_ok\": "
       << (quiet.parity_ok && noisy.parity_ok ? "true" : "false") << "\n"
       << "}\n";
    std::ofstream("BENCH_frontend_stream.json") << js.str();
    if (echo_json) std::cout << js.str();

    if (!quiet.parity_ok || !noisy.parity_ok) {
        std::cerr << "FAIL: streamed PCM differs from the per-sample oracle\n";
        return 1;
    }
    // Timing gates only run in full mode: smoke workloads are too small to
    // time reliably on loaded CI machines (the parity gate still holds).
    if (!smoke && quiet.speedup_vs_reference() < 3.0) {
        std::cerr << "FAIL: noise-off fused-kernel speedup "
                  << quiet.speedup_vs_reference() << "x is below the 3x target\n";
        return 1;
    }
    if (!smoke && noise_cost > 2.5) {
        std::cerr << "FAIL: noisy run_block takes " << noise_cost
                  << "x the noise-off wall time, above the 2.5x bound\n";
        return 1;
    }
    return 0;
}
