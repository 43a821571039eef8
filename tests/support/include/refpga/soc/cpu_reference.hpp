// Reference soft-core CPU (a test oracle).
//
// The per-step interpreter the library's `Cpu` replaced: every step fetches
// through `MemorySystem::peek`, decodes the word again and reaches the
// registers through the checked accessors. It defines the semantics the
// library's block-translating `Cpu` must reproduce exactly — registers, pc,
// state, cycles, retired count, memory and UART output after every call
// (tests/test_soc_diff.cpp). Part of the test-support library
// `refpga::oracles`.
#pragma once

#include <array>
#include <cstdint>

#include "refpga/soc/cpu.hpp"
#include "refpga/soc/memory.hpp"

namespace refpga::soc {

/// Same contract and interface as Cpu.
class CpuReference {
public:
    static constexpr int kFslLinks = 8;

    CpuReference(MemorySystem& memory, CpuCosts costs = {});

    void reset(std::uint32_t pc = 0);

    [[nodiscard]] CpuState state() const { return state_; }
    [[nodiscard]] std::uint32_t pc() const { return pc_; }
    [[nodiscard]] std::int64_t cycles() const { return cycles_; }
    [[nodiscard]] std::int64_t retired() const { return retired_; }

    [[nodiscard]] std::uint32_t reg(int index) const;
    void set_reg(int index, std::uint32_t value);

    [[nodiscard]] FslLink& fsl_to_cpu(int link);    ///< hardware -> CPU (get)
    [[nodiscard]] FslLink& fsl_from_cpu(int link);  ///< CPU -> hardware (put)

    /// Executes one instruction (or stalls one cycle when FSL-blocked).
    /// Returns the new state.
    CpuState step();

    /// Runs until halt or `max_cycles` elapse. Returns the final state.
    CpuState run(std::int64_t max_cycles);

private:
    MemorySystem& mem_;
    CpuCosts costs_;
    std::array<std::uint32_t, 32> regs_{};
    std::array<FslLink, kFslLinks> fsl_in_;   ///< hardware -> CPU
    std::array<FslLink, kFslLinks> fsl_out_;  ///< CPU -> hardware
    std::uint32_t pc_ = 0;
    std::int64_t cycles_ = 0;
    std::int64_t retired_ = 0;
    CpuState state_ = CpuState::Running;
};

}  // namespace refpga::soc
