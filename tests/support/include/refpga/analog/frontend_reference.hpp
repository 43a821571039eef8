// Reference front end (a test oracle).
//
// The per-sample path the fused block kernel of analog::FrontEnd replaced:
// every modulator tick runs the component step() calls in turn — DAC
// reconstruction (RcFilter2), the tank with its noise draws (TankCircuit),
// one anti-alias RcFilter2 and one DeltaSigmaAdc per channel. It defines
// the PCM stream FrontEnd::run_block_* and the step_* wrappers must
// reproduce bit for bit for every block partitioning, including the tank
// noise draw order (meas, then ref, per tick; none on the priming tick).
// Built from the components' public interfaces only. Part of the
// test-support library `refpga::oracles`.
#pragma once

#include <cstdint>
#include <optional>

#include "refpga/analog/delta_sigma.hpp"
#include "refpga/analog/frontend.hpp"
#include "refpga/analog/tank.hpp"

namespace refpga::analog {

class FrontEndReference {
public:
    /// Same configuration and noise seed as FrontEnd's constructor.
    explicit FrontEndReference(const FrontEndConfig& config = {},
                               std::uint64_t noise_seed = 7);

    [[nodiscard]] TankCircuit& tank() { return tank_; }

    /// One modulator tick driven by an 8-bit DAC code ((code - 128) / 128 V).
    std::optional<FrontEnd::PcmPair> step_code8(std::uint8_t code);
    /// One modulator tick driven by a delta-sigma DAC bit (+/-1 V).
    std::optional<FrontEnd::PcmPair> step_ds_bit(bool bit);

private:
    std::optional<FrontEnd::PcmPair> advance(double drive_raw_v);

    TankCircuit tank_;
    RcFilter2 recon_;
    RcFilter2 alias_meas_;
    RcFilter2 alias_ref_;
    DeltaSigmaAdc adc_meas_;
    DeltaSigmaAdc adc_ref_;
};

}  // namespace refpga::analog
