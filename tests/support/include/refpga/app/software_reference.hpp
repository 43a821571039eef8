// Reference software window (a test oracle).
//
// The per-window path the resident `SoftCore` replaced: generate and
// assemble the firmware, load it into fresh memory, write the sample
// buffers and run it on `soc::CpuReference`. Tests and
// `bench_headline_speedup` pin every `SoftwareRun` field of the resident
// core to it. Part of the test-support library `refpga::oracles`.
#pragma once

#include <cstdint>
#include <span>

#include "refpga/app/software.hpp"

namespace refpga::app {

/// One measurement window; `retired`, when given, receives the CPU's
/// retired-instruction count.
[[nodiscard]] SoftwareRun run_software_cycle_reference(
    std::span<const std::int32_t> meas, std::span<const std::int32_t> ref,
    const AppParams& params, const SoftwareConfig& config = {},
    const soc::MemoryConfig& mem_config = {}, std::int64_t* retired = nullptr);

}  // namespace refpga::app
