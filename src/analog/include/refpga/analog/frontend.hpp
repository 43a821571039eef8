// Complete analog front end: drive -> reconstruction filter -> tank ->
// anti-alias filters -> dual delta-sigma ADCs (measurement + reference).
//
// Two drive variants mirror the paper's §4.1 progression:
//   - step_code8() / run_block_code8(): the first prototype's external 8-bit
//     DAC;
//   - step_ds_bit() / run_block_ds(): the improved design's on-chip
//     delta-sigma DAC bit, reconstructed by the external RC low-pass.
//
// Streaming layer: the sample path is block-oriented. run_block_*() advances
// N modulator ticks per call through one fused, branch-light inner loop
// (reconstruction, tank + noise, anti-alias, modulators, 3-stage CIC) with
// all filter/modulator state held in locals, writing PCM pairs into a
// caller-owned SampleBlock. The per-sample step_*() entry points are thin
// wrappers over a block of one tick. Determinism rule: for a given drive
// sequence the PCM stream — including the tank-noise RNG draw order — is
// bit-identical for every block partitioning, and bit-identical to the
// per-sample oracle analog::FrontEndReference of the test-support library
// (pinned by tests/test_frontend_stream).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "refpga/analog/delta_sigma.hpp"
#include "refpga/analog/sample_block.hpp"
#include "refpga/analog/tank.hpp"
#include "refpga/obs/obs.hpp"

namespace refpga::analog {

struct FrontEndConfig {
    double modulator_hz = 16e6;       ///< DAC bit / ADC modulator rate (16 MSPS)
    double signal_hz = 500e3;         ///< excitation frequency
    int adc_decimation = 5;           ///< PCM rate = modulator / decimation (3.2 MHz)
    int adc_bits = 12;
    double recon_cutoff_hz = 1.5e6;   ///< DAC reconstruction low-pass
    double antialias_cutoff_hz = 800e3;
    TankParams tank;

    /// Throws refpga::ContractViolation unless the config describes a
    /// realizable front end: positive finite rates, the excitation and both
    /// filter cutoffs below the modulator Nyquist rate, adc_decimation and
    /// adc_bits within the DeltaSigmaAdc bounds, and a finite tank: noise
    /// level >= 0, nonzero TIA gain, positive capacitances (full above
    /// empty) and leak resistance. A degenerate config (zero clock, cutoff
    /// at or above Nyquist, decimation of 1, an infinite noise level or
    /// gain) would otherwise produce NaN filter poles, violate converter
    /// contracts deep inside the sample loop or pin the PCM at full scale.
    /// Mirrors reconfig::ConfigPortSpec::validate().
    void validate() const;
};

class FrontEnd {
public:
    explicit FrontEnd(FrontEndConfig config = {}, std::uint64_t noise_seed = 7);

    [[nodiscard]] const FrontEndConfig& config() const { return config_; }
    [[nodiscard]] TankCircuit& tank() { return tank_; }
    [[nodiscard]] const TankCircuit& tank() const { return tank_; }

    [[nodiscard]] double pcm_rate_hz() const {
        return config_.modulator_hz / config_.adc_decimation;
    }

    struct PcmPair {
        std::int32_t meas = 0;
        std::int32_t ref = 0;
    };

    /// One modulator-rate step driven by an 8-bit DAC code (0..255 maps to
    /// [-1, 1) volts). Yields a PCM pair every adc_decimation steps.
    /// Thin wrapper over run_block_code8 with a block of one tick.
    std::optional<PcmPair> step_code8(std::uint8_t code);

    /// One modulator-rate step driven by a delta-sigma DAC output bit.
    /// Thin wrapper over run_block_ds with a block of one tick.
    std::optional<PcmPair> step_ds_bit(bool bit);

    /// Modulator ticks until `pcm_pairs` more PCM pairs fire (accounts for
    /// the ADCs' current decimation phase).
    [[nodiscard]] long ticks_for_pcm(long pcm_pairs) const;

    /// Advances one modulator tick per drive element (delta-sigma bits,
    /// nonzero = +1 V) and appends every fired PCM pair to out.meas/out.ref.
    /// Returns the number of pairs appended. The caller owns the block and
    /// its capacity; run_block never shrinks it.
    std::size_t run_block_ds(std::span<const std::uint8_t> bits, SampleBlock& out);

    /// Same, driven by 8-bit DAC codes.
    std::size_t run_block_code8(std::span<const std::uint8_t> codes, SampleBlock& out);

    /// Attach (or detach with nullptr) an observability recorder. Registers
    /// frontend.{ticks,pcm_pairs,blocks}_total; run_block_* bumps them once
    /// per block, after the fused kernel, so the sample loop itself stays
    /// instrumentation-free. Non-owning; the recorder must outlive the
    /// front end or be detached first.
    void set_recorder(obs::Recorder* recorder);

private:
    void record_block(std::size_t ticks, std::size_t pairs);

    template <bool kNoisy, typename DriveToVolts>
    std::size_t run_block_impl(const std::uint8_t* drive, std::size_t n,
                               SampleBlock& out, DriveToVolts to_volts);

    FrontEndConfig config_;
    TankCircuit tank_;
    RcFilter2 recon_;
    RcFilter2 alias_meas_;
    RcFilter2 alias_ref_;
    DeltaSigmaAdc adc_meas_;
    DeltaSigmaAdc adc_ref_;
    SampleBlock step_scratch_;  ///< block-of-1 storage for the step_* wrappers
    obs::Recorder* recorder_ = nullptr;
    obs::MetricId ticks_metric_;
    obs::MetricId pairs_metric_;
    obs::MetricId blocks_metric_;
};

}  // namespace refpga::analog
