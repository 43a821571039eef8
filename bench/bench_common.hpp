// Shared plumbing for the benches: consistent headers and the --smoke flag.
#pragma once

#include <iostream>
#include <string>
#include <string_view>

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

}  // namespace refpga::benchkit
