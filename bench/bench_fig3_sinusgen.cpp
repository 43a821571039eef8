// Figure 3 — FPGA-based sinus generator with internal delta-sigma DAC (§4.1).
//
// Paper: 32-entry sine LUT + address counter at 16 MHz generate the 500 kHz
// excitation; the external DAC is replaced by the on-chip delta-sigma core
// plus an external low-pass; "real hardware tests and Fourier analysis"
// confirmed the audio-class core still produces a clean 500 kHz sine at
// 16 MSPS; total cost "ca. 50 slices". We simulate the generator netlist,
// reconstruct its bitstream through the analog model, and Fourier-analyze
// the result; resource cost comes from the packer.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "refpga/analog/delta_sigma.hpp"
#include "refpga/analog/dsp.hpp"
#include "refpga/app/hw_modules.hpp"
#include "refpga/common/table.hpp"
#include "refpga/sim/event_sim.hpp"

namespace {

using namespace refpga;

struct GeneratorFixture {
    netlist::Netlist nl;
    app::SinusGeneratorIo io;

    GeneratorFixture() {
        const auto clk = nl.add_input_port("clk", 1)[0];
        netlist::Builder b(nl, clk);
        const auto tick = nl.add_input_port("tick", 1);
        io = app::make_sinus_generator(b, tick[0]);
        nl.add_output_port("code8", io.code8);
        nl.add_output_port("ds_bit", netlist::Bus{io.ds_bit});
    }
};

void print_fig3() {
    benchkit::print_header("Figure 3", "sinus generator with internal DA converter");

    GeneratorFixture gen;

    // Resource cost (paper: "ca. 50 slices for the complete sinus generator").
    const auto stats = netlist::total_stats(gen.nl);
    std::cout << "resource utilization: " << stats.slices() << " slices ("
              << stats.luts << " LUTs, " << stats.ffs
              << " FFs); paper reports ca. 50 slices\n";

    // Fourier analysis of the reconstructed bitstream at 16 MSPS.
    sim::EventSimulator simulator(gen.nl);
    simulator.set_input("tick", 1);
    analog::RcFilter2 recon(1.5e6, 16e6);
    std::vector<double> signal;
    const int settle = 4096;
    while (signal.size() < 8192) {
        const double bit = simulator.get_port("ds_bit") != 0 ? 1.0 : -1.0;
        const double v = recon.step(bit);
        if (settle < static_cast<int>(simulator.cycle_count())) signal.push_back(v);
        simulator.tick();
    }
    // 16 MHz sampling, 8192 points: 500 kHz lands on bin 8192/32 = 256.
    const analog::ToneQuality q = analog::analyze_tone(signal, 256);
    // In-band quality up to 1 MHz (bin 512): the shaped quantization noise
    // above that is eliminated by the paper's external low-pass/anti-alias
    // filters, so this is the figure that matters for the measurement.
    const double inband_db = analog::band_sndr_db(signal, 256, 512);

    Table table({"metric", "value"});
    table.add_row({"excitation frequency", "500 kHz (bin 256 of 8192 @ 16 MSPS)"});
    table.add_row({"fundamental amplitude", Table::num(q.fundamental_amplitude, 3)});
    table.add_row({"THD (8 harmonics)", Table::num(q.thd_db, 1) + " dB"});
    table.add_row({"full-band SNDR after RC", Table::num(q.sndr_db, 1) + " dB"});
    table.add_row({"in-band SNDR (<= 1 MHz)", Table::num(inband_db, 1) + " dB"});
    std::cout << table.render();
    std::cout << "verdict: delta-sigma DAC "
              << (inband_db > 15.0 ? "produces a usable 500 kHz sine (as §4.1 found)"
                                   : "FAILS the §4.1 check")
              << "\n";

    // 8-bit code path (the first prototype's external DAC) for comparison.
    sim::EventSimulator sim2(gen.nl);
    sim2.set_input("tick", 1);
    std::vector<double> code_signal;
    while (code_signal.size() < 8192) {
        code_signal.push_back(
            (static_cast<double>(sim2.get_port("code8")) - 128.0) / 128.0);
        sim2.tick();
    }
    const analog::ToneQuality q8 = analog::analyze_tone(code_signal, 256);
    std::cout << "external 8-bit DAC path (pre-filter): THD "
              << Table::num(q8.thd_db, 1) << " dB, SNDR " << Table::num(q8.sndr_db, 1)
              << " dB\n";
}

void BM_SinusGenSimulate4096(benchmark::State& state) {
    GeneratorFixture gen;
    sim::EventSimulator simulator(gen.nl);
    simulator.set_input("tick", 1);
    for (auto _ : state) {
        simulator.run(4096);
        benchmark::DoNotOptimize(simulator.get_port("ds_bit"));
    }
}
BENCHMARK(BM_SinusGenSimulate4096)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_fig3();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
