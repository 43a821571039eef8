// Figure 2 / Figure 5 — Static/dynamic partitioning with bus macros.
//
// Paper: the FPGA is split into a static side (MicroBlaze, FSL, OPB, IP
// cores) and a dynamic side holding one reconfigurable slot; slice-based bus
// macros carry every boundary signal. Figure 5 shows the placed system in
// FPGA Editor. We verify the boundary discipline, place the system with the
// Fig. 2 floorplan and render an ASCII occupancy map of the die.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "refpga/common/table.hpp"
#include "refpga/reconfig/busmacro.hpp"

namespace {

using namespace refpga;

void print_partition_report() {
    benchkit::print_header("Figure 2", "static/dynamic partitioning and bus macros");

    const app::SystemNetlist sys = app::build_system_netlist({});
    const auto violations = reconfig::check_boundaries(sys.nl);
    std::cout << "boundary-crossing nets without bus macro: " << violations.size()
              << (violations.empty() ? " (clean, as required)" : " (VIOLATIONS!)")
              << "\n";

    std::size_t macro_cells = 0;
    for (std::uint32_t i = 0; i < sys.nl.cell_count(); ++i)
        if (sys.nl.name(netlist::CellId{i}).find(reconfig::kBusMacroTag) !=
            std::string::npos)
            ++macro_cells;
    std::cout << "bus macro buffer LUTs: " << macro_cells << " ("
              << macro_cells / 2 << " boundary signals)\n";
}

void print_floorplan() {
    benchkit::print_header("Figure 5", "placed system occupancy map (XC3S1000)");

    const app::SystemNetlist sys = app::build_system_netlist({});
    const fabric::Device dev(fabric::PartName::XC3S1000);
    par::PackedDesign packed = par::pack(sys.nl);
    par::Placement placement(dev, sys.nl, packed);
    // Fig. 2 floorplan: static on the left half, dynamic slot columns on the
    // right (full height, because Spartan-3 frames are column-granular).
    const int split = dev.cols() / 2;
    placement.constrain(sys.static_part, {0, split, 0, dev.rows()});
    placement.constrain(sys.amp_part, {split, dev.cols(), 0, dev.rows()});
    placement.constrain(sys.cap_part, {split, dev.cols(), 0, dev.rows()});
    placement.constrain(sys.filt_part, {split, dev.cols(), 0, dev.rows()});
    placement.place_initial();

    // Occupancy map: one character per CLB tile, labelled by the dominant
    // partition of its slices ('.': empty, 'S' static, 'A' amp, 'C' cap,
    // 'F' filter).
    std::vector<std::string> grid(static_cast<std::size_t>(dev.rows()),
                                  std::string(static_cast<std::size_t>(dev.cols()), '.'));
    for (std::uint32_t si = 0; si < packed.slice_count(); ++si) {
        const auto pos = placement.slice_pos(par::SliceId{si});
        const auto part = packed.slices()[si].partition.value();
        const char mark = part == 0 ? 'S' : (part == 1 ? 'A' : (part == 2 ? 'C' : 'F'));
        grid[static_cast<std::size_t>(pos.y)][static_cast<std::size_t>(pos.x)] = mark;
    }
    // Print every second row to keep the figure terminal-sized.
    for (int y = dev.rows() - 1; y >= 0; y -= 2)
        std::cout << grid[static_cast<std::size_t>(y)] << '\n';
    std::cout << "legend: S=static  A=amp_phase  C=capacity  F=filter  .=free\n";
    std::cout << "(dynamic partitions share the right-hand column range; at run\n"
              << " time only one of them is configured into the slot)\n";
}

void BM_BoundaryCheck(benchmark::State& state) {
    const app::SystemNetlist sys = app::build_system_netlist({});
    for (auto _ : state) {
        auto violations = reconfig::check_boundaries(sys.nl);
        benchmark::DoNotOptimize(violations);
    }
}
BENCHMARK(BM_BoundaryCheck)->Unit(benchmark::kMillisecond);

void BM_RegionedPlacement(benchmark::State& state) {
    const app::SystemNetlist sys = app::build_system_netlist({});
    const fabric::Device dev(fabric::PartName::XC3S1000);
    for (auto _ : state) {
        par::PackedDesign packed = par::pack(sys.nl);
        par::Placement placement(dev, sys.nl, packed);
        placement.constrain(sys.static_part, {0, dev.cols() / 2, 0, dev.rows()});
        placement.place_initial();
        benchmark::DoNotOptimize(placement.total_hpwl());
    }
}
BENCHMARK(BM_RegionedPlacement)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    print_partition_report();
    print_floorplan();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
