// Bit-exact golden models of the data-processing pipeline.
//
// These integer models define the reference semantics the hardware netlists
// must match exactly (tests assert equality) and the soft-core software
// implements instruction by instruction. All arithmetic is two's-complement
// with the widths in AppParams; wrap/truncate behaviour mirrors the fabric.
//
// Every stage reads its lookup tables from a golden::Tables, which a caller
// builds once and passes to every window (MeasurementSystem keeps one).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "refpga/app/params.hpp"

namespace refpga::app::golden {

/// The stages' lookup tables, generated by tables.cpp: the same source the
/// hardware ROMs and the firmware's data section come from.
struct Tables {
    explicit Tables(const AppParams& params);

    std::vector<std::int32_t> sin;     ///< window entries, table_bits wide
    std::vector<std::int32_t> cos;     ///< window entries, table_bits wide
    std::vector<std::int32_t> cos256;  ///< capacity stage's cos(dphi), Q11
    std::vector<std::int32_t> atan;    ///< CORDIC arc tangents, angle turns
    std::int32_t inv_gain_q15 = 0;     ///< inverse CORDIC gain
};

/// MAC stage output: I/Q correlation accumulators for both channels.
struct WindowAccumulators {
    std::int32_t i_meas = 0;
    std::int32_t q_meas = 0;
    std::int32_t i_ref = 0;
    std::int32_t q_ref = 0;
};

/// Correlates one window of PCM samples against the k-bin sin/cos tables
/// (DDS phase accumulator, exactly as the hardware does).
[[nodiscard]] WindowAccumulators accumulate_window(std::span<const std::int32_t> meas,
                                                   std::span<const std::int32_t> ref,
                                                   const AppParams& params,
                                                   const Tables& tables);

struct ChannelResult {
    std::uint32_t amplitude = 0;  ///< 16-bit
    std::uint32_t phase = 0;      ///< angle_bits-bit turns
};

/// CORDIC vectoring + gain correction on truncated accumulators.
[[nodiscard]] ChannelResult amp_phase(std::int32_t acc_i, std::int32_t acc_q,
                                      const AppParams& params, const Tables& tables);

/// Raw CORDIC vectoring (exposed for unit tests): returns {magnitude, angle}.
struct CordicVector {
    std::int32_t magnitude = 0;
    std::uint32_t angle = 0;
};
[[nodiscard]] CordicVector cordic_vector(std::int32_t x, std::int32_t y,
                                         const AppParams& params, const Tables& tables);

/// Unsigned restoring division: floor((num << frac_bits) / den), saturated to
/// `out_bits`. den == 0 saturates.
[[nodiscard]] std::uint32_t divide_sat(std::uint32_t num, std::uint32_t den,
                                       int frac_bits, int out_bits);

struct CapacityResult {
    std::uint32_t ratio_q12 = 0;   ///< amplitude ratio, saturating Q12
    std::int32_t cos_q11 = 0;      ///< cos(delta phase) from the table
    std::uint32_t cap_pf_q4 = 0;   ///< capacitance in pF, Q4
};

/// Capacity from the two channels' amplitude/phase: C = C_ref * r * cos(dphi).
[[nodiscard]] CapacityResult capacity(const ChannelResult& meas,
                                      const ChannelResult& ref,
                                      const AppParams& params, const Tables& tables);

/// Streaming filter/level state (median-3 + EMA + linearization).
class FilterState {
public:
    explicit FilterState(const AppParams& params) : params_(params) {}

    struct Output {
        std::uint32_t level_q15 = 0;
        bool alarm_high = false;
        bool alarm_low = false;
    };

    /// Consumes one capacity sample (pF Q4), returns the filtered level.
    Output step(std::uint32_t cap_pf_q4);

    [[nodiscard]] std::uint32_t ema() const { return ema_; }

private:
    AppParams params_;
    std::uint32_t history_[3] = {0, 0, 0};
    std::uint32_t ema_ = 0;
};

/// Full pipeline over one window (the per-cycle result): PCM in, level out.
struct CycleResult {
    ChannelResult meas;
    ChannelResult ref;
    CapacityResult cap;
    FilterState::Output level;
};
[[nodiscard]] CycleResult process_window(std::span<const std::int32_t> meas,
                                         std::span<const std::int32_t> ref,
                                         FilterState& filter, const AppParams& params,
                                         const Tables& tables);

}  // namespace refpga::app::golden
