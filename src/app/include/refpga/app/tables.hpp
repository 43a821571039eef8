// Lookup-table contents shared by hardware generators, golden models and the
// soft-core software (single source of truth for bit-exactness).
#pragma once

#include <cstdint>
#include <vector>

#include "refpga/app/params.hpp"
#include "refpga/common/contracts.hpp"

namespace refpga::app {

/// Signed sine table: entry i = round((2^(bits-1) - 1) * sin(2*pi*i / size)).
[[nodiscard]] std::vector<std::int32_t> sine_table(int size, int bits);

/// Signed cosine table with the same scaling.
[[nodiscard]] std::vector<std::int32_t> cosine_table(int size, int bits);

/// Entries of the sinus generator's sine LUT: one excitation period per
/// kSinusLutSize modulator ticks.
inline constexpr int kSinusLutSize = 32;

/// kSinusLutSize-entry unsigned 8-bit DAC code table for the sinus
/// generator: sine at 0.8 of full scale (second-order delta-sigma modulators
/// overload near full-scale inputs), centred on 128.
[[nodiscard]] std::vector<std::uint32_t> sinus_dac_codes();

/// CORDIC arc-tangent constants in angle turns:
/// entry i = round(atan(2^-i) / (2*pi) * 2^angle_bits).
[[nodiscard]] std::vector<std::int32_t> cordic_atan_table(int stages, int angle_bits);

/// Inverse CORDIC gain 1/K in Q15 for the given stage count.
[[nodiscard]] std::int32_t cordic_inv_gain_q15(int stages);

/// Level slope for the filter's linearization step: Q10 multiplier such that
/// level_q15 = ((cap - c_empty) * slope) >> 10, clamped.
[[nodiscard]] std::int32_t level_slope_q10(const AppParams& params);

/// Two's-complement encode of a signed value into `bits` bits.
[[nodiscard]] inline std::uint32_t encode_signed(std::int32_t value, int bits) {
    REFPGA_EXPECTS(bits >= 1 && bits <= 32);
    const std::uint32_t mask =
        bits == 32 ? 0xFFFFFFFFu : ((std::uint32_t{1} << bits) - 1);
    return static_cast<std::uint32_t>(value) & mask;
}

/// Sign-extend the low `bits` bits of a word.
[[nodiscard]] inline std::int32_t decode_signed(std::uint32_t word, int bits) {
    REFPGA_EXPECTS(bits >= 1 && bits <= 32);
    const std::uint32_t mask =
        bits == 32 ? 0xFFFFFFFFu : ((std::uint32_t{1} << bits) - 1);
    const std::uint32_t v = word & mask;
    const std::uint32_t sign = std::uint32_t{1} << (bits - 1);
    return static_cast<std::int32_t>((v ^ sign)) - static_cast<std::int32_t>(sign);
}

}  // namespace refpga::app
