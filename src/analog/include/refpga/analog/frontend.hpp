// Complete analog front end: drive -> reconstruction filter -> tank ->
// anti-alias filters -> dual delta-sigma ADCs (measurement + reference).
//
// Two drive variants mirror the paper's §4.1 progression:
//   - step_code8() / run_block_code8() / run_periodic_code8(): the first
//     prototype's external 8-bit DAC;
//   - step_ds_bit() / run_block_ds() / run_periodic_ds(): the improved
//     design's on-chip delta-sigma DAC bit, reconstructed by the external RC
//     low-pass.
//
// Streaming layer: the sample path is block-oriented. run_block_*() advances
// N modulator ticks of an arbitrary drive per call through one fused,
// branch-light inner loop (reconstruction, tank + noise, anti-alias,
// modulators, 3-stage CIC, PCM code table) with all filter/modulator state
// held in locals, writing PCM pairs into a caller-owned SampleBlock.
// run_periodic_*() take a drive that repeats with a known period (the sinus
// generator's) and read it in place; once the reconstruction has locked onto
// the drive's orbit they replay one tabulated period of tank output instead
// of recomputing it (see run_periodic_ds). The per-sample step_*() entry
// points are thin wrappers over a block of one tick. Determinism rule: for a
// given drive sequence the PCM stream — including the tank-noise RNG draw
// order — is bit-identical for every entry point and block partitioning, and
// bit-identical to the per-sample oracle analog::FrontEndReference of the
// test-support library (pinned by tests/test_frontend_stream).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "refpga/analog/delta_sigma.hpp"
#include "refpga/analog/sample_block.hpp"
#include "refpga/analog/tank.hpp"
#include "refpga/obs/obs.hpp"

namespace refpga::analog {

struct FrontEndConfig {
    /// Largest adc_decimation validate() admits. The block kernel quantizes
    /// through a table over the CIC's whole output range [-R^3, R^3], so
    /// the bound keeps that table at 2 * 16^3 + 1 = 8,193 entries or fewer.
    static constexpr int kMaxAdcDecimation = 16;

    double modulator_hz = 16e6;       ///< DAC bit / ADC modulator rate (16 MSPS)
    double signal_hz = 500e3;         ///< excitation frequency
    int adc_decimation = 5;           ///< PCM rate = modulator / decimation (3.2 MHz)
    int adc_bits = 12;
    double recon_cutoff_hz = 1.5e6;   ///< DAC reconstruction low-pass
    double antialias_cutoff_hz = 800e3;
    TankParams tank;

    /// Throws refpga::ContractViolation unless the config describes a
    /// realizable front end: positive finite rates, the excitation and both
    /// filter cutoffs below the modulator Nyquist rate, adc_decimation in
    /// [2, kMaxAdcDecimation], adc_bits within the DeltaSigmaAdc bounds (the
    /// per-sample converter keeps its own, wider decimation contract), and a
    /// finite tank: noise
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

    /// Advances `n` ticks of a periodic delta-sigma drive, read in place:
    /// tick i is driven by period[(phase + i) % period.size()]. The PCM is
    /// identical to run_block_ds over the unrolled drive. The reconstruction
    /// and the tank's branch currents depend only on the drive, the level
    /// and the reconstruction state, so a primed front end given a block of
    /// at least one period first runs one period of them from its current
    /// state. When that period ends on the state it began with, bit for bit,
    /// the reconstruction is locked onto the drive's orbit: the period's
    /// noise-free TIA voltages are tabulated, the tick loop replays them
    /// under the noise draws, and the block writes back the orbit state of
    /// its last tick. Otherwise (the first blocks after reset, short blocks)
    /// it runs run_block_ds's loop. The table is rebuilt on every call,
    /// since the tank level may change between calls.
    std::size_t run_periodic_ds(std::span<const std::uint8_t> period,
                                std::size_t phase, std::size_t n, SampleBlock& out);

    /// Same, driven by a periodic sequence of 8-bit DAC codes.
    std::size_t run_periodic_code8(std::span<const std::uint8_t> period,
                                   std::size_t phase, std::size_t n,
                                   SampleBlock& out);

    /// The PCM code the block kernel emits for one CIC output: the code
    /// table's entry, equal to DeltaSigmaAdc::quantize at this front end's
    /// decimation R and width. ContractViolation outside the CIC's output
    /// range [-R^3, R^3].
    [[nodiscard]] std::int32_t pcm_code(std::int64_t cic_output) const;

    /// Attach (or detach with nullptr) an observability recorder. Registers
    /// frontend.{ticks,pcm_pairs,blocks,orbit_blocks}_total; every block
    /// entry bumps them once per block, after the fused kernel, so the
    /// sample loop itself stays instrumentation-free (orbit_blocks counts
    /// the blocks that replayed a tabulated orbit). Non-owning; the recorder
    /// must outlive the front end or be detached first.
    void set_recorder(obs::Recorder* recorder);

private:
    /// Every block entry: `n` ticks of drive bytes[(phase + i) % size]
    /// through a byte-to-volts table; `periodic` allows the orbit replay.
    std::size_t run_drive(std::span<const std::uint8_t> bytes, std::size_t phase,
                          const double* volts, std::size_t n, bool periodic,
                          SampleBlock& out);
    std::size_t prime(double raw_v, SampleBlock& out);
    void record_block(std::size_t ticks, std::size_t pairs, bool orbit);

    template <bool kNoisy, typename Tank>
    std::size_t run_block_impl(std::size_t n, SampleBlock& out, Tank& tank);

    FrontEndConfig config_;
    TankCircuit tank_;
    RcFilter2 recon_;
    RcFilter2 alias_meas_;
    RcFilter2 alias_ref_;
    DeltaSigmaAdc adc_meas_;
    DeltaSigmaAdc adc_ref_;
    std::int64_t cic_range_;              ///< R^3, the CIC's largest |output|
    std::vector<std::int32_t> pcm_codes_;  ///< quantize(v) at index v + R^3
    std::vector<double> orbit_tia_;        ///< per tick of a period: meas, ref V
    std::vector<double> orbit_state_;      ///< per tick: recon a, b, prev drive
    SampleBlock step_scratch_;  ///< block-of-1 storage for the step_* wrappers
    obs::Recorder* recorder_ = nullptr;
    obs::MetricId ticks_metric_;
    obs::MetricId pairs_metric_;
    obs::MetricId blocks_metric_;
    obs::MetricId orbit_blocks_metric_;
};

}  // namespace refpga::analog
