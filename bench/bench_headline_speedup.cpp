// §4.2 headline — Software vs hardware processing time.
//
// Paper: "the processing performance increased with approximately a factor
// 1000, from 7 ms of processing time for the software-based algorithms to
// 7 us (without performing reconfiguration)". We measure the soft-core
// executing the ported legacy firmware (soft multiply, code in external
// SRAM), two intermediate software configurations, and the hardware modules.
//
// A second table times the simulation itself on the host: the resident
// `SoftCore` (firmware loaded once, CPU running from translated basic
// blocks) against the oracle path it replaced (assemble, fresh memory and
// `CpuReference` per window), in microseconds per window and nanoseconds per
// retired instruction, with the number of blocks each resident core
// translated. Every window's SoftwareRun must be identical on both paths;
// the exit status is non-zero otherwise, so CI runs `--smoke` as a check.
// In full mode the exit status is also non-zero unless the legacy port's
// resident core runs at least 4.5x faster than the oracle path.
//
// --json writes BENCH_headline_speedup.json (host facts, and per
// configuration the build time, both paths' time per window and per
// instruction, the speedup and the translations) to the working directory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "bench_common.hpp"
#include "refpga/app/golden.hpp"
#include "refpga/app/software.hpp"
#include "refpga/app/software_reference.hpp"
#include "refpga/common/table.hpp"

namespace {

using namespace refpga;

/// Full mode: the legacy port's resident core against the oracle path.
constexpr double kLegacySpeedupGate = 4.5;

std::vector<std::int32_t> tone_window(const app::AppParams& p, double amp, double phi) {
    std::vector<std::int32_t> w(static_cast<std::size_t>(p.window));
    for (int n = 0; n < p.window; ++n)
        w[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(
            std::lround(amp * std::sin(2.0 * M_PI * p.bin * n / p.window + phi)));
    return w;
}

void print_speedup() {
    benchkit::print_header(
        "Headline (§4.2)", "processing time: software vs hardware modules");

    const app::AppParams p;
    const auto meas = tone_window(p, 1400.0, 0.3);
    const auto ref = tone_window(p, 1000.0, 0.0);

    struct Row {
        const char* name;
        double seconds;
        std::uint32_t code_bytes;
    };
    std::vector<Row> rows;

    {
        app::SoftwareConfig cfg;  // legacy port: soft multiply, SRAM code
        const auto run = app::SoftCore(p, cfg).run(meas, ref);
        rows.push_back({"SW: legacy port (soft mul, code in ext. SRAM)",
                        run.seconds(p.system_clock_hz), run.code_bytes});
    }
    {
        app::SoftwareConfig cfg;
        cfg.hw_multiplier = true;
        const auto run = app::SoftCore(p, cfg).run(meas, ref);
        rows.push_back({"SW: + MULT18-backed multiplier",
                        run.seconds(p.system_clock_hz), run.code_bytes});
    }
    {
        app::SoftwareConfig cfg;
        cfg.hw_multiplier = true;
        cfg.code_in_sram = false;
        cfg.padding_bytes = 0;
        const auto run = app::SoftCore(p, cfg).run(meas, ref);
        rows.push_back({"SW: + kernel-only code in LMB BRAM",
                        run.seconds(p.system_clock_hz), run.code_bytes});
    }
    // Hardware: the modules replay the buffered window at the system clock
    // (N MAC cycles + registered combinational tails).
    const double hw_seconds = (p.window + 12.0) / p.system_clock_hz;
    rows.push_back({"HW: data-processing modules (§4.2)", hw_seconds, 0});

    const double sw_baseline = rows.front().seconds;
    Table table({"implementation", "processing time", "speedup vs legacy SW",
                 "code size"});
    for (const auto& row : rows) {
        const double t = row.seconds;
        table.add_row({row.name,
                       t >= 1e-3 ? Table::num(t * 1e3, 2) + " ms"
                                 : Table::num(t * 1e6, 2) + " us",
                       Table::num(sw_baseline / t, 0) + "x",
                       row.code_bytes != 0
                           ? Table::num(static_cast<double>(row.code_bytes) / 1024.0, 1) +
                                 " KB"
                           : "-"});
    }
    std::cout << table.render();
    const double factor = sw_baseline / hw_seconds;
    std::cout << "paper: 7 ms -> 7 us (~1000x). measured: "
              << Table::num(sw_baseline * 1e3, 2) << " ms -> "
              << Table::num(hw_seconds * 1e6, 2) << " us (" << Table::num(factor, 0)
              << "x)\n";
    std::cout << "lower clock headroom: at 1000x, the data-processing clock "
                 "could drop far below 50 MHz and still meet the 100 ms cycle, "
                 "cutting dynamic power (see bench_power_breakdown)\n";
}

/// One configuration's host time, resident core against the oracle path.
struct HostTime {
    std::string name;
    double build_us = 0.0;      ///< firmware build, median of five
    double core_us = 0.0;       ///< resident SoftCore, per window
    double oracle_us = 0.0;     ///< oracle path, per window
    double core_ns_per_insn = 0.0;
    double oracle_ns_per_insn = 0.0;
    std::int64_t translations = 0;  ///< blocks the resident core translated
    [[nodiscard]] double speedup() const { return oracle_us / core_us; }
};

/// Host time of the simulation, resident core vs oracle path, over
/// `windows` tone windows per configuration. Sets `identical` to whether
/// every SoftwareRun matched between the two.
std::vector<HostTime> print_host_time(int windows, bool& identical) {
    benchkit::print_header("Soft-core host time",
                           "resident SoftCore vs per-window oracle path");
    using Clock = std::chrono::steady_clock;
    auto us_since = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    };

    const app::AppParams p;
    struct Config {
        const char* name;
        app::SoftwareConfig cfg;
    };
    std::vector<Config> configs(3);
    configs[0].name = "legacy port (soft mul, SRAM code)";
    configs[1].name = "+ MULT18-backed multiplier";
    configs[1].cfg.hw_multiplier = true;
    configs[2].name = "+ kernel-only code in LMB BRAM";
    configs[2].cfg.hw_multiplier = true;
    configs[2].cfg.code_in_sram = false;
    configs[2].cfg.padding_bytes = 0;

    identical = true;
    std::vector<HostTime> rows;
    Table table({"configuration", "firmware build (us)", "SoftCore (us/window)",
                 "oracle (us/window)", "SoftCore (ns/insn)", "oracle (ns/insn)",
                 "speedup", "blocks"});
    for (const Config& c : configs) {
        HostTime row;
        row.name = c.name;
        // Firmware build (generate, assemble, load): median of five.
        std::vector<double> builds;
        for (int i = 0; i < 5; ++i) {
            const auto t0 = Clock::now();
            const app::SoftCore probe(p, c.cfg);
            builds.push_back(us_since(t0));
        }
        std::sort(builds.begin(), builds.end());
        row.build_us = builds[builds.size() / 2];

        app::SoftCore core(p, c.cfg);

        double core_us = 0.0;
        double oracle_us = 0.0;
        std::int64_t core_insns = 0;
        std::int64_t oracle_insns = 0;
        for (int w = 0; w < windows; ++w) {
            const auto meas = tone_window(p, 600.0 + 37.0 * w, 0.05 * w);
            const auto ref = tone_window(p, 1000.0, -0.02 * w);
            auto t0 = Clock::now();
            const app::SoftwareRun fast = core.run(meas, ref);
            core_us += us_since(t0);
            core_insns += core.cpu().retired();

            std::int64_t retired = 0;
            t0 = Clock::now();
            const app::SoftwareRun oracle =
                app::run_software_cycle_reference(meas, ref, p, c.cfg, {}, &retired);
            oracle_us += us_since(t0);
            oracle_insns += retired;
            if (fast != oracle || core.cpu().retired() != retired) {
                std::cerr << "FAIL: " << c.name << ", window " << w
                          << ": SoftwareRun differs from the oracle's\n";
                identical = false;
            }
        }
        row.core_us = core_us / windows;
        row.oracle_us = oracle_us / windows;
        row.core_ns_per_insn = core_us * 1e3 / static_cast<double>(core_insns);
        row.oracle_ns_per_insn = oracle_us * 1e3 / static_cast<double>(oracle_insns);
        row.translations = core.cpu().translations();
        table.add_row({row.name, Table::num(row.build_us, 0), Table::num(row.core_us, 1),
                       Table::num(row.oracle_us, 1), Table::num(row.core_ns_per_insn, 2),
                       Table::num(row.oracle_ns_per_insn, 2),
                       Table::num(row.speedup(), 1) + "x",
                       std::to_string(row.translations)});
        rows.push_back(row);
    }
    std::cout << table.render();
    std::cout << windows << " windows per configuration; every SoftwareRun identical "
              << "to the oracle's: " << (identical ? "yes" : "NO") << "\n";
    return rows;
}

/// Host facts and the rows, as BENCH_headline_speedup.json.
std::string render_json(bool smoke, int windows, const std::vector<HostTime>& rows,
                        bool identical, bool gate_ok) {
    std::ostringstream js;
    js << "{\n  \"bench\": \"headline_speedup\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"compiler\": \"" << REFPGA_COMPILER << "\",\n"
       << "  \"build_type\": \"" << REFPGA_BUILD_TYPE << "\",\n"
       << "  \"windows\": " << windows << ",\n  \"configurations\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const HostTime& r = rows[i];
        js << "    {\"name\": \"" << r.name << "\", \"build_us\": " << r.build_us
           << ", \"softcore_us_per_window\": " << r.core_us
           << ", \"oracle_us_per_window\": " << r.oracle_us
           << ", \"softcore_ns_per_insn\": " << r.core_ns_per_insn
           << ", \"oracle_ns_per_insn\": " << r.oracle_ns_per_insn
           << ", \"speedup\": " << r.speedup()
           << ", \"translations\": " << r.translations << "}"
           << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    js << "  ],\n  \"legacy_speedup_gate\": " << kLegacySpeedupGate << ",\n"
       << "  \"gate_ok\": " << (gate_ok ? "true" : "false") << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << "\n}\n";
    return js.str();
}

void BM_SoftwareCycleLegacy(benchmark::State& state) {
    const app::AppParams p;
    const auto meas = tone_window(p, 1400.0, 0.3);
    const auto ref = tone_window(p, 1000.0, 0.0);
    app::SoftCore core(p);
    for (auto _ : state) {
        auto run = core.run(meas, ref);
        benchmark::DoNotOptimize(run.level_q15);
    }
}
BENCHMARK(BM_SoftwareCycleLegacy)->Unit(benchmark::kMicrosecond);

void BM_SoftCoreBuild(benchmark::State& state) {
    const app::AppParams p;
    for (auto _ : state) {
        app::SoftCore core(p);
        benchmark::DoNotOptimize(core.cpu().pc());
    }
}
BENCHMARK(BM_SoftCoreBuild)->Unit(benchmark::kMicrosecond);

void BM_GoldenPipelineWindow(benchmark::State& state) {
    const app::AppParams p;
    const auto meas = tone_window(p, 1400.0, 0.3);
    const auto ref = tone_window(p, 1000.0, 0.0);
    app::golden::FilterState filter(p);
    for (auto _ : state) {
        auto result = app::golden::process_window(meas, ref, filter, p);
        benchmark::DoNotOptimize(result.level.level_q15);
    }
}
BENCHMARK(BM_GoldenPipelineWindow)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    bool json = false;
    for (int i = 1; i < argc; ++i) json = json || std::string_view(argv[i]) == "--json";
    print_speedup();
    const int windows = smoke ? 20 : 200;
    bool identical = true;
    const std::vector<HostTime> rows = print_host_time(windows, identical);
    // The timing gate runs in full mode only: 20 smoke windows are too few
    // to time on a shared host.
    const bool gate_ok = smoke || rows.front().speedup() >= kLegacySpeedupGate;
    if (!smoke)
        std::cout << "legacy port: resident core " << Table::num(rows.front().speedup(), 1)
                  << "x the oracle path (gate >= " << Table::num(kLegacySpeedupGate, 1)
                  << "x): " << (gate_ok ? "ok" : "FAIL") << "\n";
    if (json)
        std::ofstream("BENCH_headline_speedup.json")
            << render_json(smoke, windows, rows, identical, gate_ok);
    if (!identical || !gate_ok) return 1;
    if (smoke) return 0;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
