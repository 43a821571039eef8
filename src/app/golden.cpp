#include "refpga/app/golden.hpp"

#include <algorithm>

#include "refpga/app/tables.hpp"
#include "refpga/common/contracts.hpp"

namespace refpga::app::golden {

namespace {

/// Wraps a value to `bits` two's-complement bits (signed result).
std::int32_t wrap(std::int64_t v, int bits) {
    return decode_signed(static_cast<std::uint32_t>(v), bits);
}

}  // namespace

Tables::Tables(const AppParams& params)
    : sin(sine_table(params.window, params.table_bits)),
      cos(cosine_table(params.window, params.table_bits)),
      cos256(cosine_table(256, params.cos_table_bits)),
      atan(cordic_atan_table(params.cordic_stages, params.angle_bits)),
      inv_gain_q15(cordic_inv_gain_q15(params.cordic_stages)) {}

WindowAccumulators accumulate_window(std::span<const std::int32_t> meas,
                                     std::span<const std::int32_t> ref,
                                     const AppParams& params, const Tables& tables) {
    REFPGA_EXPECTS(meas.size() == static_cast<std::size_t>(params.window));
    REFPGA_EXPECTS(ref.size() == meas.size());
    REFPGA_EXPECTS(tables.sin.size() == meas.size() && tables.cos.size() == meas.size());
    const std::vector<std::int32_t>& sin_t = tables.sin;
    const std::vector<std::int32_t>& cos_t = tables.cos;

    WindowAccumulators acc;
    std::uint32_t phase = 0;  // DDS phase accumulator, mod window
    const auto mask = static_cast<std::uint32_t>(params.window - 1);
    for (int n = 0; n < params.window; ++n) {
        const std::int32_t s = sin_t[phase];
        const std::int32_t c = cos_t[phase];
        // Product truncated to 22 bits (matches the MULT18 output slice).
        auto mac = [&](std::int32_t accv, std::int32_t x, std::int32_t t) {
            const std::int32_t prod =
                wrap(static_cast<std::int64_t>(x) * t, params.sample_bits +
                                                           params.table_bits);
            return wrap(static_cast<std::int64_t>(accv) + prod, params.acc_bits);
        };
        acc.i_meas = mac(acc.i_meas, meas[static_cast<std::size_t>(n)], c);
        acc.q_meas = mac(acc.q_meas, meas[static_cast<std::size_t>(n)], s);
        acc.i_ref = mac(acc.i_ref, ref[static_cast<std::size_t>(n)], c);
        acc.q_ref = mac(acc.q_ref, ref[static_cast<std::size_t>(n)], s);
        phase = (phase + static_cast<std::uint32_t>(params.bin)) & mask;
    }
    return acc;
}

CordicVector cordic_vector(std::int32_t x0, std::int32_t y0, const AppParams& params,
                           const Tables& tables) {
    const int w = params.cordic_bits;
    const std::vector<std::int32_t>& atan_t = tables.atan;
    REFPGA_EXPECTS(atan_t.size() == static_cast<std::size_t>(params.cordic_stages));
    const std::uint32_t angle_mask =
        (params.angle_bits == 32) ? 0xFFFFFFFFu
                                  : ((std::uint32_t{1} << params.angle_bits) - 1);

    std::int32_t x = wrap(x0, w);
    std::int32_t y = wrap(y0, w);
    std::uint32_t z = 0;

    // Pre-rotation: x < 0 => negate both, z0 = half a turn (mod 2^bits the
    // sign of pi does not matter).
    if (x < 0) {
        x = wrap(-static_cast<std::int64_t>(x), w);
        y = wrap(-static_cast<std::int64_t>(y), w);
        z = std::uint32_t{1} << (params.angle_bits - 1);
    }

    for (int i = 0; i < params.cordic_stages; ++i) {
        const std::int32_t xs = x >> i;  // arithmetic shift
        const std::int32_t ys = y >> i;
        const auto a = static_cast<std::uint32_t>(atan_t[static_cast<std::size_t>(i)]);
        if (y >= 0) {
            const std::int32_t nx = wrap(static_cast<std::int64_t>(x) + ys, w);
            const std::int32_t ny = wrap(static_cast<std::int64_t>(y) - xs, w);
            x = nx;
            y = ny;
            z = (z + a) & angle_mask;
        } else {
            const std::int32_t nx = wrap(static_cast<std::int64_t>(x) - ys, w);
            const std::int32_t ny = wrap(static_cast<std::int64_t>(y) + xs, w);
            x = nx;
            y = ny;
            z = (z - a) & angle_mask;
        }
    }
    return {x, z};
}

ChannelResult amp_phase(std::int32_t acc_i, std::int32_t acc_q, const AppParams& params,
                        const Tables& tables) {
    // Truncate accumulators to the CORDIC lane width.
    const std::int32_t x = acc_i >> params.acc_shift;
    const std::int32_t y = acc_q >> params.acc_shift;
    const CordicVector v = cordic_vector(x, y, params, tables);

    // Gain correction: amp = (magnitude * invK) >> 15, 16-bit truncation.
    const std::int64_t scaled =
        static_cast<std::int64_t>(v.magnitude) * tables.inv_gain_q15;
    ChannelResult result;
    result.amplitude = static_cast<std::uint32_t>(scaled >> 15) & 0xFFFFu;
    result.phase = v.angle;
    return result;
}

std::uint32_t divide_sat(std::uint32_t num, std::uint32_t den, int frac_bits,
                         int out_bits) {
    REFPGA_EXPECTS(frac_bits >= 0 && frac_bits <= 16);
    REFPGA_EXPECTS(out_bits >= 1 && out_bits <= 28);
    const std::uint32_t max_out = (std::uint32_t{1} << out_bits) - 1;
    if (den == 0) return max_out;
    const std::uint64_t q = (static_cast<std::uint64_t>(num) << frac_bits) / den;
    return q > max_out ? max_out : static_cast<std::uint32_t>(q);
}

CapacityResult capacity(const ChannelResult& meas, const ChannelResult& ref,
                        const AppParams& params, const Tables& tables) {
    CapacityResult result;
    result.ratio_q12 = divide_sat(meas.amplitude, ref.amplitude,
                                  params.ratio_frac_bits, params.ratio_bits);

    const std::uint32_t angle_mask = (std::uint32_t{1} << params.angle_bits) - 1;
    const std::uint32_t dphi = (meas.phase - ref.phase) & angle_mask;
    const std::uint32_t addr = dphi >> (params.angle_bits - 8);
    result.cos_q11 = tables.cos256[addr];

    // C/C_ref in Q12: (ratio_q12 * cos_q11) >> 11, clamped at 0.
    const std::int64_t scaled =
        static_cast<std::int64_t>(result.ratio_q12) * result.cos_q11;
    std::int64_t c_rel_q12 = scaled >> 11;
    if (c_rel_q12 < 0) c_rel_q12 = 0;

    // pF in Q4: (c_rel_q12 * c_ref_q4) >> 12, 16-bit saturation.
    std::int64_t pf_q4 = (c_rel_q12 * params.c_ref_q4()) >> 12;
    if (pf_q4 > 0xFFFF) pf_q4 = 0xFFFF;
    result.cap_pf_q4 = static_cast<std::uint32_t>(pf_q4);
    return result;
}

FilterState::Output FilterState::step(std::uint32_t cap_pf_q4) {
    // Median-of-3 over the most recent samples. State starts at zero exactly
    // like the hardware registers, so golden and netlist stay bit-identical
    // from reset onward.
    history_[2] = history_[1];
    history_[1] = history_[0];
    history_[0] = cap_pf_q4;
    const std::uint32_t a = history_[0];
    const std::uint32_t b = history_[1];
    const std::uint32_t c = history_[2];
    const std::uint32_t median = std::max(std::min(a, b), std::min(std::max(a, b), c));

    // EMA: y += (x - y) >> k, computed in signed arithmetic.
    const std::int32_t diff =
        static_cast<std::int32_t>(median) - static_cast<std::int32_t>(ema_);
    ema_ = static_cast<std::uint32_t>(static_cast<std::int32_t>(ema_) +
                                      (diff >> params_.ema_shift)) &
           0xFFFFu;

    // Linearization to level Q15.
    Output out;
    std::int64_t delta =
        static_cast<std::int64_t>(ema_) - params_.c_empty_q4();
    if (delta < 0) delta = 0;
    std::int64_t level = (delta * level_slope_q10(params_)) >> 10;
    if (level > 32767) level = 32767;
    out.level_q15 = static_cast<std::uint32_t>(level);
    out.alarm_high = out.level_q15 > static_cast<std::uint32_t>(params_.level_alarm_high);
    out.alarm_low = out.level_q15 < static_cast<std::uint32_t>(params_.level_alarm_low);
    return out;
}

CycleResult process_window(std::span<const std::int32_t> meas,
                           std::span<const std::int32_t> ref, FilterState& filter,
                           const AppParams& params, const Tables& tables) {
    const WindowAccumulators acc = accumulate_window(meas, ref, params, tables);
    CycleResult result;
    result.meas = amp_phase(acc.i_meas, acc.q_meas, params, tables);
    result.ref = amp_phase(acc.i_ref, acc.q_ref, params, tables);
    result.cap = capacity(result.meas, result.ref, params, tables);
    result.level = filter.step(result.cap.cap_pf_q4);
    return result;
}

}  // namespace refpga::app::golden
