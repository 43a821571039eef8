// Host time of the §4.2 software path: the resident `SoftCore` (firmware
// loaded once, CPU running from translated basic blocks) against the oracle
// path it replaced (assemble, fresh memory and `CpuReference` per window),
// in microseconds per window, with the number of blocks each resident core
// translated and the shift-add multiply loops it ran as one op per window,
// for the legacy port and the two intermediate software configurations. The
// oracle's nanoseconds per retired instruction are its cost per step; the
// resident core has no such figure, since each fused loop retires its
// instructions without dispatching them. The modelled §4.2
// SW/HW table itself is the claims suite's H1 check (tests/test_claims.cpp).
// Every window's SoftwareRun must be identical on both paths; the exit
// status is non-zero otherwise, so CI runs `--smoke` as a check. In full
// mode the exit status is also non-zero unless the legacy port's resident
// core runs at least 8x faster than the oracle path.
//
// --json writes BENCH_headline_speedup.json (host facts, and per
// configuration the build time, both paths' time per window, the oracle's
// time per instruction, the speedup, the translations and the fused loops
// per window) to the working directory.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "bench_common.hpp"
#include "refpga/app/software.hpp"
#include "refpga/app/software_reference.hpp"
#include "refpga/common/table.hpp"

namespace {

using namespace refpga;

/// Full mode: the legacy port's resident core against the oracle path.
constexpr double kLegacySpeedupGate = 8.0;

std::vector<std::int32_t> tone_window(const app::AppParams& p, double amp, double phi) {
    std::vector<std::int32_t> w(static_cast<std::size_t>(p.window));
    for (int n = 0; n < p.window; ++n)
        w[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(
            std::lround(amp * std::sin(2.0 * M_PI * p.bin * n / p.window + phi)));
    return w;
}

/// One configuration's host time, resident core against the oracle path.
struct HostTime {
    std::string name;
    double build_us = 0.0;      ///< firmware build, median of five
    double core_us = 0.0;       ///< resident SoftCore, per window
    double oracle_us = 0.0;     ///< oracle path, per window
    double oracle_ns_per_insn = 0.0;
    std::int64_t translations = 0;  ///< blocks the resident core translated
    double fused_per_window = 0.0;  ///< shift-add loops run as one op
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
                 "oracle (us/window)", "oracle (ns/insn)",
                 "speedup", "blocks", "fused loops/window"});
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
        std::int64_t oracle_insns = 0;
        for (int w = 0; w < windows; ++w) {
            const auto meas = tone_window(p, 600.0 + 37.0 * w, 0.05 * w);
            const auto ref = tone_window(p, 1000.0, -0.02 * w);
            auto t0 = Clock::now();
            const app::SoftwareRun fast = core.run(meas, ref);
            core_us += us_since(t0);

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
        row.oracle_ns_per_insn = oracle_us * 1e3 / static_cast<double>(oracle_insns);
        row.translations = core.cpu().translations();
        row.fused_per_window = static_cast<double>(core.cpu().fused_loops()) / windows;
        table.add_row({row.name, Table::num(row.build_us, 0), Table::num(row.core_us, 1),
                       Table::num(row.oracle_us, 1), Table::num(row.oracle_ns_per_insn, 2),
                       Table::num(row.speedup(), 1) + "x",
                       std::to_string(row.translations),
                       Table::num(row.fused_per_window, 1)});
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
       << benchkit::host_facts_json()
       << "  \"windows\": " << windows << ",\n  \"configurations\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const HostTime& r = rows[i];
        js << "    {\"name\": \"" << r.name << "\", \"build_us\": " << r.build_us
           << ", \"softcore_us_per_window\": " << r.core_us
           << ", \"oracle_us_per_window\": " << r.oracle_us
           << ", \"oracle_ns_per_insn\": " << r.oracle_ns_per_insn
           << ", \"speedup\": " << r.speedup()
           << ", \"translations\": " << r.translations
           << ", \"fused_loops_per_window\": " << r.fused_per_window << "}"
           << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    js << "  ],\n  \"legacy_speedup_gate\": " << kLegacySpeedupGate << ",\n"
       << "  \"gate_ok\": " << (gate_ok ? "true" : "false") << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << "\n}\n";
    return js.str();
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    bool json = false;
    for (int i = 1; i < argc; ++i) json = json || std::string_view(argv[i]) == "--json";
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
    return identical && gate_ok ? 0 : 1;
}
