// Software implementation of the measurement pipeline for the soft-core.
//
// This is the paper's baseline: the original microcontroller algorithms
// ported 1:1 onto the MicroBlaze (§4, "the identical software algorithms
// were used"). The legacy code does not use the FPGA's MULT18 blocks, so by
// default multiplication runs as a shift-add library routine; code plus
// tables exceed 60 KB and therefore live in external SRAM — together these
// reproduce the ~7 ms software processing time the paper reports. Setting
// `hw_multiplier` shows the intermediate point of merely enabling the
// soft-core's hardware multiplier.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "refpga/app/params.hpp"
#include "refpga/soc/cpu.hpp"
#include "refpga/soc/memory.hpp"

namespace refpga::app {

struct SoftwareConfig {
    bool hw_multiplier = false;   ///< use mul/mulh instructions
    bool code_in_sram = true;     ///< firmware linked to external SRAM
    /// Firmware bulk beyond the measurement kernel (drivers, protocol
    /// stacks, calibration); makes the image exceed the BRAM budget.
    std::uint32_t padding_bytes = 58 * 1024;
};

/// Data addresses the runner and program agree on (all in external SRAM).
struct SoftwareLayout {
    std::uint32_t code_base = 0x8000'0000;
    std::uint32_t meas_buf = 0x8002'0000;    ///< window samples, meas channel
    std::uint32_t ref_buf = 0x8002'0800;     ///< window samples, ref channel
    std::uint32_t result_base = 0x8002'1000; ///< results block (see indices)
};

/// Word indices within the result block.
enum class SwResult : int {
    AmpMeas = 0,
    PhaseMeas = 1,
    AmpRef = 2,
    PhaseRef = 3,
    RatioQ12 = 4,
    CapPfQ4 = 5,
    LevelQ15 = 6,
};

/// Generates the measurement firmware as assembly text.
[[nodiscard]] std::string measurement_source(const AppParams& params,
                                             const SoftwareConfig& config = {},
                                             const SoftwareLayout& layout = {});

struct SoftwareRun {
    std::uint32_t amp_meas = 0;
    std::uint32_t phase_meas = 0;
    std::uint32_t amp_ref = 0;
    std::uint32_t phase_ref = 0;
    std::uint32_t ratio_q12 = 0;
    std::uint32_t cap_pf_q4 = 0;
    std::uint32_t level_q15 = 0;
    std::int64_t cycles = 0;
    std::uint32_t code_bytes = 0;

    [[nodiscard]] double seconds(double clock_hz) const {
        return static_cast<double>(cycles) / clock_hz;
    }
    bool operator==(const SoftwareRun&) const = default;
};

/// The measurement firmware resident on the soft-core. The constructor
/// generates, assembles and loads the firmware once; run() rewrites the two
/// sample buffers, resets the CPU and executes one window. The firmware
/// writes nothing but the result block, so back-to-back runs equal runs on a
/// freshly loaded core. Pinned to its address (the CPU refers to the
/// memory).
class SoftCore {
public:
    /// Throws ContractViolation when the image would reach
    /// `SoftwareLayout::meas_buf` (too much `padding_bytes`).
    explicit SoftCore(const AppParams& params, const SoftwareConfig& config = {},
                      const soc::MemoryConfig& mem_config = {});

    SoftCore(const SoftCore&) = delete;
    SoftCore& operator=(const SoftCore&) = delete;

    /// Executes one measurement window (`params.window` samples a channel).
    [[nodiscard]] SoftwareRun run(std::span<const std::int32_t> meas,
                                  std::span<const std::int32_t> ref);

    [[nodiscard]] const soc::MemorySystem& memory() const { return memory_; }
    [[nodiscard]] const soc::Cpu& cpu() const { return cpu_; }

private:
    std::size_t window_;
    SoftwareLayout layout_;
    soc::MemorySystem memory_;
    soc::Cpu cpu_;
    std::uint32_t entry_;
    std::uint32_t code_bytes_ = 0;
};

}  // namespace refpga::app
