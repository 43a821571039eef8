// Activity-extraction engines head to head: the reference cycle sweep (a
// test-support oracle) vs the library's event-driven engine.
//
// The workload is gated_channel_netlist — many identical CE-gated datapath
// channels behind a one-hot selector, so ~1/channels of the fabric toggles
// per cycle (the activity profile of the paper's clock-gated measurement
// design). The cycle engine pays for every cell every tick; the event engine
// pays only for cells whose inputs changed, which is where long activity
// extractions (§4.3 simulate -> VCD -> power) get their speedup.
//
// Every row is parity-gated before it is reported: identical per-net toggle
// counts, identical final state and probe value, and byte-identical VCD
// dumps between the engines (the dual-engine contract of sim/engine.hpp).
// Emits BENCH_sim_activity.json next to the binary; --json mirrors it to
// stdout. Exit status is non-zero on any parity violation (both modes) or,
// in full mode, when the headline-config speedup falls below the 10x target
// (smoke workloads are too small to time reliably on loaded CI machines).
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/common/table.hpp"
#include "refpga/sim/event_sim.hpp"
#include "refpga/sim/random_netlist.hpp"
#include "refpga/sim/simulator.hpp"
#include "refpga/sim/vcd.hpp"

namespace {

using namespace refpga;

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

struct Config {
    int channels;
    int width;
    int depth;
    int cycles;
};

struct Result {
    Config config;
    std::size_t cells = 0;
    double cycle_ms = 0.0;
    double event_ms = 0.0;
    double toggles_per_cycle = 0.0;
    bool parity_ok = true;  ///< toggle counts + final state + probe
    bool vcd_ok = true;     ///< byte-identical dumps

    [[nodiscard]] double speedup() const {
        return event_ms > 0.0 ? cycle_ms / event_ms : 0.0;
    }
};

/// The shared stimulus program: mostly-idle input with an occasional new
/// "stim" word, driven identically into whichever engine runs. Returns the
/// run's wall time; the engine keeps its toggle/state tallies for parity.
double drive(sim::SimEngine& sim, int cycles, std::uint64_t seed,
             std::uint64_t stim_mask) {
    Rng rng(seed);
    sim.set_input("stim", 0x2A5 & stim_mask);
    const double t0 = now_ms();
    for (int t = 1; t <= cycles; ++t) {
        if (t % 97 == 0) sim.set_input("stim", rng.next_u64() & stim_mask);
        sim.tick();
    }
    return now_ms() - t0;
}

/// Full-netlist VCD dump of a short run (short because the dump itself, not
/// simulation, dominates the cost).
std::string vcd_dump(sim::SimEngine& engine, int cycles, std::uint64_t stim_mask) {
    std::vector<netlist::NetId> nets;
    nets.reserve(engine.netlist().net_count());
    for (std::uint32_t i = 0; i < engine.netlist().net_count(); ++i)
        nets.push_back(netlist::NetId{i});
    std::ostringstream os;
    sim::VcdWriter writer(os, engine, nets);
    writer.sample(1);
    Rng rng(7);
    for (int t = 1; t <= cycles; ++t) {
        if (t % 13 == 0) engine.set_input("stim", rng.next_u64() & stim_mask);
        engine.tick();
        writer.sample(1 + std::int64_t{t} * 1000);
    }
    return os.str();
}

bool vcd_bytes_identical(const netlist::Netlist& nl, int cycles,
                         std::uint64_t stim_mask) {
    sim::Simulator cycle(nl);
    sim::EventSimulator event(nl);
    return vcd_dump(cycle, cycles, stim_mask) == vcd_dump(event, cycles, stim_mask);
}

Result run_config(const Config& config, int vcd_cycles) {
    Result r;
    r.config = config;
    const netlist::Netlist nl =
        sim::gated_channel_netlist(config.channels, config.width, config.depth);
    r.cells = nl.cell_count();
    const std::uint64_t stim_mask = (std::uint64_t{1} << config.width) - 1;

    sim::Simulator cycle(nl);
    sim::EventSimulator event(nl);
    {  // warm both code paths before timing
        sim::Simulator w1(nl);
        sim::EventSimulator w2(nl);
        (void)drive(w1, 16, 1, stim_mask);
        (void)drive(w2, 16, 1, stim_mask);
    }
    r.cycle_ms = drive(cycle, config.cycles, 2008, stim_mask);
    r.event_ms = drive(event, config.cycles, 2008, stim_mask);

    // Parity gate: the speedup row is meaningless unless the engines agree
    // bit for bit on what they simulated.
    std::int64_t total = 0;
    for (const std::int64_t t : cycle.toggle_counts()) total += t;
    r.toggles_per_cycle = static_cast<double>(total) / config.cycles;
    r.parity_ok = cycle.toggle_counts() == event.toggle_counts() &&
                  cycle.get_port("probe") == event.get_port("probe");
    for (std::uint32_t i = 0; r.parity_ok && i < nl.net_count(); ++i)
        r.parity_ok = cycle.net_value(netlist::NetId{i}) ==
                      event.net_value(netlist::NetId{i});
    r.vcd_ok = vcd_bytes_identical(nl, vcd_cycles, stim_mask);
    if (!r.parity_ok || !r.vcd_ok)
        std::cerr << "PARITY VIOLATION at channels=" << config.channels
                  << " width=" << config.width << " depth=" << config.depth
                  << (r.vcd_ok ? "" : " (VCD bytes)") << "\n";
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    const bool echo_json = flag(argc, argv, "--json");
    benchkit::print_header("sim activity",
                           std::string("event-driven vs cycle engine") +
                               (smoke ? " [smoke]" : ""));

    // The last config is the headline: large fabric, low activity factor.
    const std::vector<Config> configs =
        smoke ? std::vector<Config>{{64, 8, 2, 400}, {128, 12, 4, 200}}
              : std::vector<Config>{
                    {64, 8, 2, 20000}, {128, 12, 4, 8000}, {256, 12, 4, 8000}};
    const int vcd_cycles = smoke ? 48 : 192;

    std::vector<Result> results;
    results.reserve(configs.size());
    for (const Config& config : configs)
        results.push_back(run_config(config, vcd_cycles));
    const Result& headline = results.back();

    Table table({"channels", "width", "depth", "cells", "cycles", "cycle (ms)",
                 "event (ms)", "speedup", "toggles/cycle"});
    for (const Result& r : results)
        table.add_row({std::to_string(r.config.channels),
                       std::to_string(r.config.width),
                       std::to_string(r.config.depth), std::to_string(r.cells),
                       std::to_string(r.config.cycles), Table::num(r.cycle_ms, 1),
                       Table::num(r.event_ms, 1), Table::num(r.speedup(), 1) + "x",
                       Table::num(r.toggles_per_cycle, 1)});
    std::cout << table.render();

    bool parity_ok = true;
    for (const Result& r : results) parity_ok = parity_ok && r.parity_ok && r.vcd_ok;
    std::cout << "headline: " << Table::num(headline.speedup(), 1) << "x on "
              << headline.cells << " cells (activity factor "
              << Table::num(headline.toggles_per_cycle /
                                static_cast<double>(headline.cells),
                            3)
              << " toggles/cell/cycle)\n";
    std::cout << "engines bit-identical (toggles, state, VCD bytes): "
              << (parity_ok ? "yes" : "NO") << "\n";

    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"sim_activity\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"configs\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        js << (i > 0 ? ", " : "") << "{\"channels\": " << r.config.channels
           << ", \"width\": " << r.config.width << ", \"depth\": " << r.config.depth
           << ", \"cells\": " << r.cells << ", \"cycles\": " << r.config.cycles
           << ", \"cycle_ms\": " << r.cycle_ms << ", \"event_ms\": " << r.event_ms
           << ", \"speedup\": " << r.speedup()
           << ", \"toggles_per_cycle\": " << r.toggles_per_cycle
           << ", \"parity_ok\": " << (r.parity_ok ? "true" : "false")
           << ", \"vcd_ok\": " << (r.vcd_ok ? "true" : "false") << "}";
    }
    js << "],\n"
       << "  \"headline_speedup\": " << headline.speedup() << ",\n"
       << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n"
       << "}\n";
    std::ofstream("BENCH_sim_activity.json") << js.str();
    if (echo_json) std::cout << js.str();

    if (!parity_ok) {
        std::cerr << "FAIL: the engines disagree — the event engine may not "
                     "be used for activity extraction\n";
        return 1;
    }
    // Timing gate only in full mode; the parity gate above runs in both.
    if (!smoke && headline.speedup() < 10.0) {
        std::cerr << "FAIL: headline event-engine speedup "
                  << headline.speedup() << "x is below the 10x target\n";
        return 1;
    }
    return 0;
}
