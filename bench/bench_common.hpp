// Shared plumbing for the benches: consistent headers, the --smoke flag and
// the host facts their JSON files record.
#pragma once

#include <iostream>
#include <string>
#include <string_view>
#include <thread>

namespace refpga::benchkit {

inline void print_header(const std::string& id, const std::string& title) {
    std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// True when the binary was invoked with --smoke. CI runs the benches in
/// this mode: a scaled-down scenario that validates the bench end-to-end
/// (and its invariants) without paying full measurement time.
inline bool smoke_mode(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--smoke") return true;
    return false;
}

/// The host-fact members of a bench's JSON object, one `"key": value,` line
/// each: nproc, compiler and build type. REFPGA_COMPILER and
/// REFPGA_BUILD_TYPE come from refpga_bench() in bench/CMakeLists.txt.
inline std::string host_facts_json() {
    return "  \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
           ",\n  \"compiler\": \"" REFPGA_COMPILER "\",\n  \"build_type\": \"" REFPGA_BUILD_TYPE
           "\",\n";
}

}  // namespace refpga::benchkit
