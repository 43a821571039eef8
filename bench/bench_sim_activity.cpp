// Activity-extraction engines head to head: the reference cycle sweep (a
// test-support oracle) vs the library's event-driven engine.
//
// Two kinds of row. The gated-channel rows run gated_channel_netlist — many
// identical CE-gated datapath channels behind a one-hot selector, so
// ~1/channels of the fabric toggles per cycle (the activity profile of the
// paper's clock-gated measurement design). The cycle engine pays for every
// cell every tick; the event engine drains only cells whose inputs changed,
// which is where long activity extractions (§4.3 simulate -> VCD -> power)
// get their speedup. The dense row runs the Table-2 system netlist under
// app::system_activity's stimulus, where some 3,600 of its 16,922 nets
// change on every tick and the event engine settles its ticks with its
// level-order sweep instead. Each row prints the share of the event
// engine's ticks that took the sweep (sim.dense_ticks_total of
// sim.ticks_total).
//
// Every row is parity-gated before it is reported: identical per-net toggle
// counts, identical final state and probe value, and byte-identical VCD
// dumps between the engines (the dual-engine contract of sim/engine.hpp).
// Emits BENCH_sim_activity.json (with the host facts) to the working
// directory; --json mirrors it to stdout. Exit status is non-zero on any
// parity violation (both modes) or, in full mode, when the headline
// gated-channel row's speedup falls below the 10x target (smoke workloads
// are too small to time reliably on loaded CI machines). The dense row's
// timing is reported, not gated.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/common/table.hpp"
#include "refpga/obs/obs.hpp"
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
    std::string fabric;  ///< row label
    int cycles = 0;
    std::size_t cells = 0;
    double cycle_ms = 0.0;
    double event_ms = 0.0;
    double toggles_per_cycle = 0.0;
    double dense_share = 0.0;  ///< event engine ticks settled by the sweep
    bool parity_ok = true;     ///< toggle counts + final state + probe
    bool vcd_ok = true;        ///< byte-identical dumps

    [[nodiscard]] double speedup() const {
        return event_ms > 0.0 ? cycle_ms / event_ms : 0.0;
    }
};

/// Runs `cycles` ticks, calling `step(engine, t)` before tick t; returns the
/// loop's wall time.
template <typename Step>
double run_ticks(sim::SimEngine& engine, int cycles, Step step) {
    const double t0 = now_ms();
    for (int t = 1; t <= cycles; ++t) {
        step(engine, t);
        engine.tick();
    }
    return now_ms() - t0;
}

/// Full-netlist VCD dump of `cycles` ticks, `step(engine, t)` before tick t.
template <typename Step>
std::string vcd_dump(sim::SimEngine& engine, int cycles, Step step) {
    std::vector<netlist::NetId> nets;
    nets.reserve(engine.netlist().net_count());
    for (std::uint32_t i = 0; i < engine.netlist().net_count(); ++i)
        nets.push_back(netlist::NetId{i});
    std::ostringstream os;
    sim::VcdWriter writer(os, engine, nets);
    writer.sample(1);
    for (int t = 1; t <= cycles; ++t) {
        step(engine, t);
        engine.tick();
        writer.sample(1 + std::int64_t{t} * 1000);
    }
    return os.str();
}

/// The gated-channel stimulus: a new "stim" word every `every` cycles.
auto stim_every(int every, std::uint64_t seed, std::uint64_t stim_mask) {
    return [every, stim_mask, rng = Rng(seed)](sim::SimEngine& e, int t) mutable {
        if (t % every == 0) e.set_input("stim", rng.next_u64() & stim_mask);
    };
}

/// app::system_activity's stimulus: tick_16mhz and adc_valid held at 1
/// (driven by hold_system_inputs before the run), then fresh adc_meas and
/// adc_ref words from Rng(2024) before every tick.
void hold_system_inputs(sim::SimEngine& e) {
    for (const char* held : {"tick_16mhz", "adc_valid"}) e.set_input(held, 1);
}

auto adc_words() {
    return [rng = Rng(2024)](sim::SimEngine& e, int) mutable {
        e.set_input("adc_meas", rng.next_below(4096));
        e.set_input("adc_ref", rng.next_below(4096));
    };
}

/// Per-net toggles, per-net final state and the probe (when the netlist
/// has one) must match.
bool engines_agree(const netlist::Netlist& nl, const sim::SimEngine& cycle,
                   const sim::SimEngine& event) {
    if (cycle.toggle_counts() != event.toggle_counts()) return false;
    if (nl.find_port("probe") != nullptr &&
        cycle.get_port("probe") != event.get_port("probe"))
        return false;
    for (std::uint32_t i = 0; i < nl.net_count(); ++i)
        if (cycle.net_value(netlist::NetId{i}) != event.net_value(netlist::NetId{i}))
            return false;
    return true;
}

/// Times both engines over one stimulus and gates the row on parity.
/// `prepare` drives the held inputs before the timed window, `make_step()`
/// returns a fresh per-cycle program for each run, and the VCD comparison
/// replays `vcd_cycles` ticks of `make_vcd_step()` on fresh engines (a
/// shorter run than the timed one on the gated rows, where the full-netlist
/// dump, not the simulation, dominates the cost).
template <typename Prepare, typename MakeStep, typename MakeVcdStep>
void measure(const netlist::Netlist& nl, Prepare prepare, MakeStep make_step,
             int vcd_cycles, MakeVcdStep make_vcd_step, Result& r) {
    r.cells = nl.cell_count();
    sim::Simulator cycle(nl);
    sim::EventSimulator event(nl);
    obs::Recorder recorder;
    event.set_recorder(&recorder);
    {  // warm both code paths before timing
        sim::Simulator w1(nl);
        sim::EventSimulator w2(nl);
        prepare(w1);
        prepare(w2);
        (void)run_ticks(w1, 16, make_step());
        (void)run_ticks(w2, 16, make_step());
    }
    prepare(cycle);
    prepare(event);
    r.cycle_ms = run_ticks(cycle, r.cycles, make_step());
    r.event_ms = run_ticks(event, r.cycles, make_step());
    r.dense_share = recorder.metrics().value("sim.dense_ticks_total") /
                    recorder.metrics().value("sim.ticks_total");

    // Parity gate: the speedup row is meaningless unless the engines agree
    // bit for bit on what they simulated.
    std::int64_t total = 0;
    for (const std::int64_t t : cycle.toggle_counts()) total += t;
    r.toggles_per_cycle = static_cast<double>(total) / r.cycles;
    r.parity_ok = engines_agree(nl, cycle, event);
    {
        sim::Simulator vcd_cycle(nl);
        sim::EventSimulator vcd_event(nl);
        prepare(vcd_cycle);
        prepare(vcd_event);
        r.vcd_ok = vcd_dump(vcd_cycle, vcd_cycles, make_vcd_step()) ==
                   vcd_dump(vcd_event, vcd_cycles, make_vcd_step());
    }
    if (!r.parity_ok || !r.vcd_ok)
        std::cerr << "PARITY VIOLATION on " << r.fabric
                  << (r.vcd_ok ? "" : " (VCD bytes)") << "\n";
}

Result run_config(const Config& config, int vcd_cycles) {
    Result r;
    r.fabric = std::to_string(config.channels) + " x " + std::to_string(config.width) +
               " x " + std::to_string(config.depth);
    r.cycles = config.cycles;
    const netlist::Netlist nl =
        sim::gated_channel_netlist(config.channels, config.width, config.depth);
    const std::uint64_t stim_mask = (std::uint64_t{1} << config.width) - 1;
    // Mostly-idle input: an occasional new "stim" word.
    measure(
        nl, [&](sim::SimEngine& e) { e.set_input("stim", 0x2A5 & stim_mask); },
        [&] { return stim_every(97, 2008, stim_mask); }, vcd_cycles,
        [&] { return stim_every(13, 7, stim_mask); }, r);
    return r;
}

Result run_system(int cycles) {
    Result r;
    r.fabric = "Table-2 system";
    r.cycles = cycles;
    const app::SystemNetlist sys = app::build_system_netlist({});
    measure(sys.nl, hold_system_inputs, adc_words, cycles, adc_words, r);
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = benchkit::smoke_mode(argc, argv);
    const bool echo_json = flag(argc, argv, "--json");
    benchkit::print_header("sim activity",
                           std::string("event-driven vs cycle engine") +
                               (smoke ? " [smoke]" : ""));

    // The last gated config is the headline: large fabric, low activity
    // factor.
    const std::vector<Config> configs =
        smoke ? std::vector<Config>{{64, 8, 2, 400}, {128, 12, 4, 200}}
              : std::vector<Config>{
                    {64, 8, 2, 20000}, {128, 12, 4, 8000}, {256, 12, 4, 8000}};
    const int vcd_cycles = smoke ? 48 : 192;

    std::vector<Result> results;
    results.reserve(configs.size() + 1);
    for (const Config& config : configs)
        results.push_back(run_config(config, vcd_cycles));
    const Result headline = results.back();
    results.push_back(run_system(smoke ? 64 : 256));
    const Result& dense = results.back();

    Table table({"fabric", "cells", "cycles", "cycle (ms)", "event (ms)", "speedup",
                 "toggles/cycle", "dense ticks"});
    for (const Result& r : results)
        table.add_row({r.fabric, std::to_string(r.cells), std::to_string(r.cycles),
                       Table::num(r.cycle_ms, 1), Table::num(r.event_ms, 1),
                       Table::num(r.speedup(), 1) + "x",
                       Table::num(r.toggles_per_cycle, 1),
                       Table::num(100.0 * r.dense_share, 1) + " %"});
    std::cout << table.render();

    bool parity_ok = true;
    for (const Result& r : results) parity_ok = parity_ok && r.parity_ok && r.vcd_ok;
    std::cout << "headline: " << Table::num(headline.speedup(), 1) << "x on "
              << headline.cells << " cells (activity factor "
              << Table::num(headline.toggles_per_cycle /
                                static_cast<double>(headline.cells),
                            3)
              << " toggles/cell/cycle)\n";
    std::cout << "dense row: " << Table::num(dense.speedup(), 1) << "x on the "
              << dense.cells << "-cell Table-2 system (activity factor "
              << Table::num(dense.toggles_per_cycle / static_cast<double>(dense.cells), 3)
              << " toggles/cell/cycle, not gated)\n";
    std::cout << "engines bit-identical (toggles, state, VCD bytes): "
              << (parity_ok ? "yes" : "NO") << "\n";

    auto row_json = [](const Result& r) {
        std::ostringstream js;
        js << "\"cells\": " << r.cells << ", \"cycles\": " << r.cycles
           << ", \"cycle_ms\": " << r.cycle_ms << ", \"event_ms\": " << r.event_ms
           << ", \"speedup\": " << r.speedup()
           << ", \"toggles_per_cycle\": " << r.toggles_per_cycle
           << ", \"dense_tick_share\": " << r.dense_share
           << ", \"parity_ok\": " << (r.parity_ok ? "true" : "false")
           << ", \"vcd_ok\": " << (r.vcd_ok ? "true" : "false") << "}";
        return js.str();
    };
    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"sim_activity\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << benchkit::host_facts_json()
       << "  \"configs\": [";
    for (std::size_t i = 0; i < configs.size(); ++i)
        js << (i > 0 ? ", " : "") << "{\"channels\": " << configs[i].channels
           << ", \"width\": " << configs[i].width << ", \"depth\": " << configs[i].depth
           << ", " << row_json(results[i]);
    js << "],\n"
       << "  \"system\": {\"netlist\": \"table2_full_system\", " << row_json(dense)
       << ",\n"
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
