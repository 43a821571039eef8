#include "refpga/app/hw_modules.hpp"

#include <algorithm>
#include <cmath>

#include "refpga/app/tables.hpp"
#include "refpga/common/contracts.hpp"

namespace refpga::app {

using netlist::Builder;
using netlist::Bus;
using netlist::NetId;

namespace {

/// Arithmetic shift right by a constant: free rewiring on the fabric.
Bus shr_arith(Builder& b, const Bus& a, int k) {
    REFPGA_EXPECTS(k >= 0 && k < static_cast<int>(a.size()));
    return b.sign_extend(Builder::slice(a, k, static_cast<int>(a.size()) - k),
                         static_cast<int>(a.size()));
}

/// Table contents encoded for rom_lut (two's complement words).
std::vector<std::uint32_t> encode_table(const std::vector<std::int32_t>& values,
                                        int bits) {
    std::vector<std::uint32_t> words;
    words.reserve(values.size());
    for (const std::int32_t v : values) words.push_back(encode_signed(v, bits));
    return words;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sinus generator (Fig. 3)
// ---------------------------------------------------------------------------

SinusGeneratorIo make_sinus_generator(Builder& b, NetId tick, const AppParams& params) {
    b.push_scope("sinusgen");

    // 5-bit address counter at the 16 MHz tick; 32-entry unsigned sine LUT
    // at 0.8 full scale (second-order modulators overload near full scale).
    const Bus addr = b.counter(5, tick, "addr");
    const Bus code8 = b.rom_lut(addr, sinus_dac_codes(), 8, "sine");

    // Second-order delta-sigma modulator (CIFB): u = code8 - 128, which in
    // two's complement is just an inverted MSB (one LUT instead of a
    // subtractor); feedback +-128; 14/16-bit integrators.
    Bus u = Builder::slice(code8, 0, 7);
    u.push_back(b.not_(code8[7]));
    const Bus u14 = b.sign_extend(u, 14);

    // s2's sign decides the output bit: out = !sign(s2) (s2 >= 0 -> +1).
    // s2 integrates the *updated* s1 (classic CIFB ordering).
    Bus s1_q;
    NetId out_bit{};
    (void)b.feedback_reg(
        16,
        [&](const Bus& s2) {
            out_bit = b.not_(s2.back());  // 1 when s2 >= 0
            Bus s1_next;
            s1_q = b.feedback_reg(
                14,
                [&](const Bus& s1) {
                    // s1' = s1 + u - fb, fb = out ? +128 : -128
                    const Bus t = b.add(s1, u14);
                    s1_next = b.addsub(t, b.constant(128, 14), out_bit);
                    return s1_next;
                },
                tick, "s1");
            // s2' = s2 + s1' - fb
            const Bus t = b.add(s2, b.sign_extend(s1_next, 16));
            return b.addsub(t, b.constant(128, 16), out_bit);
        },
        tick, "s2");

    SinusGeneratorIo io;
    io.code8 = code8;
    io.ds_bit = out_bit;
    b.pop_scope();
    (void)params;
    return io;
}

SinusGenModel::SinusGenModel(const AppParams&) {
    // The netlist's recurrence, tick by tick from reset: the out bit comes
    // from the current s2, s2 integrates the new s1, and both integrators
    // wrap at 14/16 bits.
    const std::vector<std::uint32_t> table = sinus_dac_codes();
    std::size_t addr = 0;
    std::int32_t s1 = 0;
    std::int32_t s2 = 0;
    do {
        // Bounded search: the state space has 2^35 states, and kMaxPeriod
        // is far past any period worth tabulating.
        REFPGA_ENSURES(bits_.size() < kMaxPeriod);
        const auto code8 = static_cast<std::int32_t>(table[addr]);
        const bool bit = s2 >= 0;
        const std::int32_t fb = bit ? 128 : -128;
        s1 = decode_signed(static_cast<std::uint32_t>(s1 + (code8 - 128) - fb), 14);
        s2 = decode_signed(static_cast<std::uint32_t>(s2 + s1 - fb), 16);
        bits_.push_back(static_cast<std::uint8_t>(bit));
        addr = (addr + 1) % table.size();
    } while (addr != 0 || s1 != 0 || s2 != 0);
}

void SinusGenModel::run_block_bits(std::size_t n, std::uint8_t* bits) {
    while (n > 0) {
        const std::size_t run = std::min(n, period() - phase_);
        std::copy_n(bits_.begin() + static_cast<std::ptrdiff_t>(phase_), run, bits);
        bits += run;
        n -= run;
        advance(run);
    }
}

// ---------------------------------------------------------------------------
// Amplitude & phase module
// ---------------------------------------------------------------------------

namespace {

/// One I/Q accumulator pair for a channel.
struct MacPair {
    Bus acc_i;
    Bus acc_q;
};

MacPair make_mac(Builder& b, const Bus& sample, const Bus& sin_v, const Bus& cos_v,
                 NetId valid, NetId clear, const AppParams& params,
                 const std::string& name) {
    b.push_scope(name);
    const int prod_bits = params.sample_bits + params.table_bits;
    const NetId ce = b.or_(valid, clear);

    auto accumulator = [&](const Bus& table_v, const std::string& lane) {
        const Bus prod = b.mul_mult18(sample, table_v, prod_bits, 0, lane + "_mul");
        const Bus prod_ext = b.sign_extend(prod, params.acc_bits);
        return b.feedback_reg(
            params.acc_bits,
            [&](const Bus& acc) {
                const Bus sum = b.add(acc, prod_ext);
                // clear: load the fresh product alone (first sample of window)
                return b.mux_bus(clear, sum, prod_ext);
            },
            ce, lane + "_acc");
    };
    MacPair pair;
    pair.acc_i = accumulator(cos_v, "i");
    pair.acc_q = accumulator(sin_v, "q");
    b.pop_scope();
    return pair;
}

}  // namespace

AmpPhaseIo make_amp_phase(Builder& b, const Bus& meas, const Bus& ref, NetId valid,
                          NetId clear, NetId chan_sel, const AppParams& params) {
    REFPGA_EXPECTS(meas.size() == static_cast<std::size_t>(params.sample_bits));
    REFPGA_EXPECTS(ref.size() == meas.size());
    b.push_scope("ampphase");

    // DDS phase accumulator: addr' = clear ? 0 : addr + bin (mod window).
    const int addr_bits = static_cast<int>(std::lround(std::log2(params.window)));
    REFPGA_EXPECTS((1 << addr_bits) == params.window);
    const NetId ce = b.or_(valid, clear);
    const Bus addr = b.feedback_reg(
        addr_bits,
        [&](const Bus& a) {
            const Bus next = b.add(a, b.constant(static_cast<std::uint64_t>(params.bin),
                                                 addr_bits));
            return b.mux_bus(clear, next, b.constant(0, addr_bits));
        },
        ce, "dds");

    // Shared sin/cos ROMs.
    const Bus sin_v = b.rom_lut(addr, encode_table(sine_table(params.window,
                                                              params.table_bits),
                                                   params.table_bits),
                                params.table_bits, "sinrom");
    const Bus cos_v = b.rom_lut(addr, encode_table(cosine_table(params.window,
                                                                params.table_bits),
                                                   params.table_bits),
                                params.table_bits, "cosrom");

    // Per-channel MACs.
    const MacPair mac_m = make_mac(b, meas, sin_v, cos_v, valid, clear, params, "meas");
    const MacPair mac_r = make_mac(b, ref, sin_v, cos_v, valid, clear, params, "ref");

    // Sample counter: done after N valid samples.
    const Bus count = b.feedback_reg(
        addr_bits + 1,
        [&](const Bus& c) {
            return b.mux_bus(clear, b.increment(c), b.constant(0, addr_bits + 1));
        },
        ce, "count");
    const NetId done = count.back();  // bit N: counted 2^addr_bits samples

    // Channel-multiplexed CORDIC: truncate accumulators, select channel.
    auto lane_in = [&](const Bus& acc) {
        return Builder::slice(acc, params.acc_shift,
                              params.acc_bits - params.acc_shift);
    };
    REFPGA_EXPECTS(params.acc_bits - params.acc_shift == params.cordic_bits);
    Bus x = b.mux_bus(chan_sel, lane_in(mac_m.acc_i), lane_in(mac_r.acc_i));
    Bus y = b.mux_bus(chan_sel, lane_in(mac_m.acc_q), lane_in(mac_r.acc_q));

    // Pre-rotation: x < 0 => negate both lanes, z0 = half turn.
    const NetId sign_x = x.back();
    x = b.mux_bus(sign_x, x, b.negate(x));
    y = b.mux_bus(sign_x, y, b.negate(y));
    Bus z = b.constant(0, params.angle_bits);
    z.back() = sign_x;  // +pi == -pi mod 2^bits

    const auto atan_t = cordic_atan_table(params.cordic_stages, params.angle_bits);
    for (int i = 0; i < params.cordic_stages; ++i) {
        b.push_scope("cordic" + std::to_string(i));
        const NetId sign_y = y.back();  // 1 when y < 0
        const Bus xs = shr_arith(b, x, i);
        const Bus ys = shr_arith(b, y, i);
        // y >= 0: x += ys, y -= xs, z += atan; y < 0: mirrored.
        const Bus nx = b.addsub(x, ys, sign_y);
        const Bus ny = b.addsub(y, xs, b.not_(sign_y));
        const Bus nz =
            b.addsub(z,
                     b.constant(static_cast<std::uint64_t>(
                                    atan_t[static_cast<std::size_t>(i)]),
                                params.angle_bits),
                     sign_y);
        x = nx;
        y = ny;
        z = nz;
        b.pop_scope();
    }

    // Gain correction: amp = (x * invK) >> 15, 16-bit.
    const std::int32_t inv_k = cordic_inv_gain_q15(params.cordic_stages);
    const Bus inv_k_bus = b.constant(static_cast<std::uint64_t>(inv_k), 16);
    const Bus amp = b.mul_mult18(x, inv_k_bus, 16, 15, "gain");

    AmpPhaseIo io;
    io.done = done;
    io.amp = amp;
    io.phase = z;
    b.pop_scope();
    return io;
}

// ---------------------------------------------------------------------------
// Capacity module
// ---------------------------------------------------------------------------

CapacityIo make_capacity(Builder& b, const Bus& amp_m, const Bus& ph_m,
                         const Bus& amp_r, const Bus& ph_r, const AppParams& params) {
    REFPGA_EXPECTS(amp_m.size() == 16 && amp_r.size() == 16);
    REFPGA_EXPECTS(ph_m.size() == static_cast<std::size_t>(params.angle_bits));
    REFPGA_EXPECTS(ph_r.size() == ph_m.size());
    b.push_scope("capacity");

    // Unrolled restoring division: ratio = (amp_m << frac) / amp_r.
    const int dividend_bits = 16 + params.ratio_frac_bits;  // 28
    Bus quotient;  // filled LSB-first at the end
    std::vector<NetId> q_bits_msb_first;
    Bus remainder = b.constant(0, 17);
    const Bus divisor = b.zero_extend(amp_r, 18);
    for (int i = dividend_bits - 1; i >= 0; --i) {
        b.push_scope("div" + std::to_string(i));
        // R' = (R << 1) | dividend_bit_i; dividend = amp_m << frac.
        const NetId in_bit = (i >= params.ratio_frac_bits)
                                 ? amp_m[static_cast<std::size_t>(
                                       i - params.ratio_frac_bits)]
                                 : b.gnd();
        Bus shifted;
        shifted.push_back(in_bit);
        shifted.insert(shifted.end(), remainder.begin(), remainder.end());  // 18 bits
        const Bus trial = b.sub(shifted, divisor);
        const NetId borrow = trial.back();  // 1 => R' < divisor
        q_bits_msb_first.push_back(b.not_(borrow));
        remainder = Builder::slice(b.mux_bus(borrow, trial, shifted), 0, 17);
        b.pop_scope();
    }
    // Saturate: if any quotient bit above ratio_bits is set, force all-ones.
    NetId overflow = b.gnd();
    for (int i = 0; i < dividend_bits - params.ratio_bits; ++i)
        overflow = b.or_(overflow, q_bits_msb_first[static_cast<std::size_t>(i)]);
    Bus ratio;
    for (int i = 0; i < params.ratio_bits; ++i) {
        const NetId bit =
            q_bits_msb_first[static_cast<std::size_t>(dividend_bits - 1 - i)];
        ratio.push_back(b.or_(bit, overflow));
    }

    // cos(delta phi) lookup on the top 8 phase-difference bits.
    const Bus dphi = b.sub(ph_m, ph_r);
    const Bus cos_addr = Builder::slice(dphi, params.angle_bits - 8, 8);
    const Bus cos_v = b.rom_lut(
        cos_addr,
        encode_table(cosine_table(256, params.cos_table_bits), params.cos_table_bits),
        params.cos_table_bits, "cosrom");

    // c_rel = (ratio * cos) >> 11, clamped at 0 (16-bit slice, sign checked).
    const Bus ratio_s = b.zero_extend(ratio, params.ratio_bits + 1);  // non-negative
    const Bus c_rel_raw = b.mul_mult18(ratio_s, cos_v, 16, 11, "rel");
    const NetId neg = c_rel_raw.back();
    const Bus c_rel = b.mux_bus(neg, c_rel_raw, b.constant(0, 16));

    // cap_pf_q4 = (c_rel * c_ref_q4) >> 12, 16-bit (no saturation needed for
    // the calibrated constants; a 17th bit guard is still checked).
    const Bus c_ref_bus =
        b.constant(static_cast<std::uint64_t>(params.c_ref_q4()), 13);
    const Bus cap_raw = b.mul_mult18(c_rel, c_ref_bus, 17, 12, "scale");
    const NetId sat = cap_raw.back();
    const Bus cap =
        b.mux_bus(sat, Builder::slice(cap_raw, 0, 16), b.constant(0xFFFF, 16));

    CapacityIo io;
    io.ratio_q12 = ratio;
    io.cap_pf_q4 = cap;
    b.pop_scope();
    return io;
}

// ---------------------------------------------------------------------------
// Filter & level module
// ---------------------------------------------------------------------------

FilterIo make_filter(Builder& b, const Bus& cap, NetId cap_valid,
                     const AppParams& params) {
    REFPGA_EXPECTS(cap.size() == 16);
    b.push_scope("filter");

    // Median-3 over the incoming sample plus two history registers: the
    // median that feeds the EMA update on a given clock edge includes the
    // sample being latched on that edge (matches the golden stream exactly).
    const Bus h0 = b.reg(cap, cap_valid, "h0");
    const Bus h1 = b.reg(h0, cap_valid, "h1");

    auto min_u = [&](const Bus& p, const Bus& q) {
        return b.mux_bus(b.lt_unsigned(p, q), q, p);
    };
    auto max_u = [&](const Bus& p, const Bus& q) {
        return b.mux_bus(b.lt_unsigned(p, q), p, q);
    };
    const Bus median = max_u(min_u(cap, h0), min_u(max_u(cap, h0), h1));

    // EMA: y' = y + (median - y) >> k, on 17-bit signed lanes.
    Bus ema16;
    ema16 = b.feedback_reg(
        16,
        [&](const Bus& y) {
            const Bus y17 = b.zero_extend(y, 17);
            const Bus m17 = b.zero_extend(median, 17);
            const Bus diff = b.sub(m17, y17);
            const Bus step = shr_arith(b, diff, params.ema_shift);
            return Builder::slice(b.add(y17, step), 0, 16);
        },
        cap_valid, "ema");

    // Linearization: level = clamp(((ema - c_empty) * slope) >> 10, 0, 32767).
    const Bus ema17 = b.zero_extend(ema16, 17);
    const Bus delta_raw =
        b.sub(ema17, b.constant(static_cast<std::uint64_t>(params.c_empty_q4()), 17));
    const NetId below = delta_raw.back();
    const Bus delta = b.mux_bus(below, delta_raw, b.constant(0, 17));

    const std::int32_t slope = level_slope_q10(params);
    // 14 bits: the multiplier treats operands as signed, so the constant
    // needs a clear sign bit on top of its 13 magnitude bits.
    const Bus slope_bus = b.constant(static_cast<std::uint64_t>(slope), 14);
    const Bus level_raw = b.mul_mult18(delta, slope_bus, 21, 10, "lin");
    // Clamp to Q15: any bit at/above 15 saturates.
    NetId over = b.gnd();
    for (std::size_t i = 15; i < level_raw.size(); ++i)
        over = b.or_(over, level_raw[i]);
    Bus level = b.mux_bus(over, Builder::slice(level_raw, 0, 15),
                          b.constant(32767, 15));
    level = b.zero_extend(level, 16);

    // Alarms.
    const NetId alarm_high = b.lt_unsigned(
        b.constant(static_cast<std::uint64_t>(params.level_alarm_high), 16), level);
    const NetId alarm_low = b.lt_unsigned(
        level, b.constant(static_cast<std::uint64_t>(params.level_alarm_low), 16));

    FilterIo io;
    io.level_q15 = level;
    io.alarm_high = alarm_high;
    io.alarm_low = alarm_low;
    io.ema = ema16;
    b.pop_scope();
    return io;
}

// ---------------------------------------------------------------------------
// ADC interface (static side)
// ---------------------------------------------------------------------------

AdcInterfaceIo make_adc_interface(Builder& b, const Bus& meas_in, const Bus& ref_in,
                                  NetId valid_in, const AppParams& params) {
    REFPGA_EXPECTS(meas_in.size() == static_cast<std::size_t>(params.sample_bits));
    REFPGA_EXPECTS(ref_in.size() == meas_in.size());
    b.push_scope("adc_if");
    AdcInterfaceIo io;
    io.meas = b.reg(meas_in, valid_in, "meas");
    io.ref = b.reg(ref_in, valid_in, "ref");
    // Valid is delayed one cycle to line up with the registered data.
    io.valid = b.ff(valid_in, NetId{}, "valid");
    b.pop_scope();
    return io;
}

}  // namespace refpga::app
