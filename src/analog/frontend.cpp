#include "refpga/analog/frontend.hpp"

#include <algorithm>
#include <cmath>

#include "refpga/common/contracts.hpp"

// The fused block kernel processes the measurement and reference channels as
// the two lanes of a 128-bit vector on SSE2 targets (always present on
// x86-64). Packed IEEE-754 ops are lane-wise identical to their scalar
// counterparts, so the vector loop produces bit-identical PCM to the scalar
// fallback below and to the per-sample oracle (analog::FrontEndReference in
// the test-support library); the parity tests pin whichever variant the
// build selects.
#if defined(__SSE2__) || defined(_M_AMD64)
#define REFPGA_FRONTEND_SSE2 1
#include <emmintrin.h>
#endif

namespace refpga::analog {

void FrontEndConfig::validate() const {
    REFPGA_EXPECTS(modulator_hz > 0.0 && std::isfinite(modulator_hz));
    REFPGA_EXPECTS(signal_hz > 0.0 && signal_hz < modulator_hz / 2.0);
    // DeltaSigmaAdc's own contract bounds, checked here so a degenerate
    // config fails at the front-end boundary with the offending field named.
    REFPGA_EXPECTS(adc_decimation >= 2 && adc_decimation <= 4096);
    REFPGA_EXPECTS(adc_bits >= 4 && adc_bits <= 24);
    REFPGA_EXPECTS(recon_cutoff_hz > 0.0 && recon_cutoff_hz < modulator_hz / 2.0);
    REFPGA_EXPECTS(antialias_cutoff_hz > 0.0 &&
                   antialias_cutoff_hz < modulator_hz / 2.0);
    // Finite tank values: an infinite noise level or gain passes a plain
    // sign test and then pins every PCM sample at full scale.
    const auto finite_positive = [](double v) { return std::isfinite(v) && v > 0.0; };
    REFPGA_EXPECTS(finite_positive(tank.c_empty_pf));
    REFPGA_EXPECTS(std::isfinite(tank.c_full_pf) && tank.c_full_pf > tank.c_empty_pf);
    REFPGA_EXPECTS(finite_positive(tank.c_ref_pf));
    REFPGA_EXPECTS(finite_positive(tank.r_leak_ohm));
    REFPGA_EXPECTS(std::isfinite(tank.tia_gain_v_per_a) && tank.tia_gain_v_per_a != 0.0);
    REFPGA_EXPECTS(std::isfinite(tank.noise_rms_v) && tank.noise_rms_v >= 0.0);
}

namespace {

const FrontEndConfig& validated(const FrontEndConfig& config) {
    config.validate();
    return config;
}

}  // namespace

FrontEnd::FrontEnd(FrontEndConfig config, std::uint64_t noise_seed)
    : config_(validated(config)),
      tank_(config.tank, config.modulator_hz, noise_seed),
      recon_(config.recon_cutoff_hz, config.modulator_hz),
      alias_meas_(config.antialias_cutoff_hz, config.modulator_hz),
      alias_ref_(config.antialias_cutoff_hz, config.modulator_hz),
      adc_meas_(config.adc_decimation, config.adc_bits),
      adc_ref_(config.adc_decimation, config.adc_bits) {}

long FrontEnd::ticks_for_pcm(long pcm_pairs) const {
    REFPGA_EXPECTS(pcm_pairs >= 0);
    const long ticks = pcm_pairs * adc_meas_.decimation_ - adc_meas_.phase_;
    return std::max(0L, ticks);
}

// ---------------------------------------------------------------------------
// Fused block kernel
// ---------------------------------------------------------------------------
//
// One pass over the drive block with every piece of pipeline state — six RC
// poles, tank sample-and-difference, the noise RNG, two modulators and two
// 3-stage CIC decimators — held in locals, so the compiler keeps the whole
// chain in registers and the only per-tick memory traffic is the drive read
// and the (1/decimation-rate) PCM write. The arithmetic is copied operation
// for operation from the component step() implementations; any deviation
// breaks the bit-identity contract pinned by tests/test_frontend_stream.

template <bool kNoisy, typename DriveToVolts>
std::size_t FrontEnd::run_block_impl(const std::uint8_t* drive, std::size_t n,
                                     SampleBlock& out, DriveToVolts to_volts) {
    REFPGA_EXPECTS(adc_meas_.phase_ == adc_ref_.phase_ &&
                   adc_meas_.decimation_ == adc_ref_.decimation_);
    const int decimation = adc_meas_.decimation_;
    const std::size_t pairs =
        (static_cast<std::size_t>(adc_meas_.phase_) + n) /
        static_cast<std::size_t>(decimation);

    const std::size_t base = out.meas.size();
    out.meas.resize(base + pairs);
    out.ref.resize(base + pairs);
    std::int32_t* pcm_meas = out.meas.data() + base;
    std::int32_t* pcm_ref = out.ref.data() + base;

    // Reconstruction low-pass (RcFilter2: two cascaded poles).
    const double ra_k = recon_.a_.alpha_;
    const double rb_k = recon_.b_.alpha_;
    double ra_s = recon_.a_.state_;
    double rb_s = recon_.b_.state_;
    // Anti-alias low-passes, one per channel.
    const double ma_k = alias_meas_.a_.alpha_;
    const double mb_k = alias_meas_.b_.alpha_;
    double ma_s = alias_meas_.a_.state_;
    double mb_s = alias_meas_.b_.state_;
    const double fa_k = alias_ref_.a_.alpha_;
    const double fb_k = alias_ref_.b_.alpha_;
    double fa_s = alias_ref_.a_.state_;
    double fb_s = alias_ref_.b_.state_;
    // Tank. The level is fixed for the duration of a block (set_level happens
    // between cycles), so the probe capacitance is a loop constant.
    const double inv_dt = tank_.inv_dt_;
    const double c_probe = tank_.probe_capacitance_pf() * 1e-12;
    const double c_ref = tank_.params_.c_ref_pf * 1e-12;
    const double tia_gain = tank_.params_.tia_gain_v_per_a;
    const double noise_rms = tank_.params_.noise_rms_v;
    const double g_leak = tank_.g_leak_;
    double prev_drive = tank_.prev_drive_;
    bool primed = tank_.primed_;
    Rng rng = tank_.rng_;  // keeps the xoshiro state in registers
    // Delta-sigma modulators + CIC integrators/combs.
    double m_s1 = adc_meas_.s1_, m_s2 = adc_meas_.s2_;
    double r_s1 = adc_ref_.s1_, r_s2 = adc_ref_.s2_;
    std::int64_t m_i0 = adc_meas_.integ_[0], m_i1 = adc_meas_.integ_[1],
                 m_i2 = adc_meas_.integ_[2];
    std::int64_t r_i0 = adc_ref_.integ_[0], r_i1 = adc_ref_.integ_[1],
                 r_i2 = adc_ref_.integ_[2];
    std::int64_t m_c0 = adc_meas_.comb_[0], m_c1 = adc_meas_.comb_[1],
                 m_c2 = adc_meas_.comb_[2];
    std::int64_t r_c0 = adc_ref_.comb_[0], r_c1 = adc_ref_.comb_[1],
                 r_c2 = adc_ref_.comb_[2];
    int phase = adc_meas_.phase_;
    const double full_scale = adc_meas_.full_scale_;
    const double max_code = static_cast<double>(adc_meas_.max_code());
    const double min_code = static_cast<double>(adc_meas_.min_code());

#if REFPGA_FRONTEND_SSE2
    // Vector lane convention: low lane = measurement channel, high lane =
    // reference channel. Every packed op below performs the same IEEE-754
    // operation per lane as the scalar fallback, in the same order, so the
    // PCM stream is bit-identical between the two loop bodies.
    const __m128d sign_mask = _mm_set1_pd(-0.0);
    const __m128d one = _mm_set1_pd(1.0);
    const __m128d neg_one = _mm_set1_pd(-1.0);
    const __m128i one_i = _mm_set1_epi64x(1);
    const __m128d alias_a_k = _mm_set_pd(fa_k, ma_k);
    const __m128d alias_b_k = _mm_set_pd(fb_k, mb_k);
    const __m128d branch_c = _mm_set_pd(c_ref, c_probe);
    // High lane has no leak path; `+ drive_v * 0.0` contributes a signed
    // zero, the additive identity for every double, so the lane stays equal
    // to the scalar `c_ref * dv_dt`.
    const __m128d branch_g = _mm_set_pd(0.0, g_leak);
    const __m128d tia = _mm_set1_pd(tia_gain);
    __m128d alias_a_s = _mm_set_pd(fa_s, ma_s);
    __m128d alias_b_s = _mm_set_pd(fb_s, mb_s);
    __m128d mod_s1 = _mm_set_pd(r_s1, m_s1);
    __m128d mod_s2 = _mm_set_pd(r_s2, m_s2);
    __m128i cic_i0 = _mm_set_epi64x(r_i0, m_i0);
    __m128i cic_i1 = _mm_set_epi64x(r_i1, m_i1);
    __m128i cic_i2 = _mm_set_epi64x(r_i2, m_i2);

    // Everything downstream of the tank — anti-alias filters, modulators,
    // CIC integrators and the decimated PCM tail — shared between the
    // peeled priming tick and the steady-state loop below.
    const auto tick_channels = [&](const __m128d tia_v) {
        // Anti-alias filters, both channels per op.
        alias_a_s = _mm_add_pd(
            alias_a_s, _mm_mul_pd(alias_a_k, _mm_sub_pd(tia_v, alias_a_s)));
        alias_b_s = _mm_add_pd(
            alias_b_s, _mm_mul_pd(alias_b_k, _mm_sub_pd(alias_a_s, alias_b_s)));

        // Delta-sigma modulators + CIC integrators (DeltaSigmaAdc::step).
        // min(max(x, -1), 1) matches std::clamp for every finite input
        // including signed zeros; or(and(s2, signbit), 1.0) is copysign,
        // value-identical to `s2 >= 0.0 ? 1.0 : -1.0` because s2 only ever
        // accumulates round-to-nearest sums of finite values — it can never
        // become -0.0 or NaN.
        const __m128d clipped =
            _mm_min_pd(_mm_max_pd(alias_b_s, neg_one), one);
        const __m128d y = _mm_or_pd(_mm_and_pd(mod_s2, sign_mask), one);
        mod_s1 = _mm_add_pd(mod_s1, _mm_sub_pd(clipped, y));
        mod_s2 = _mm_add_pd(mod_s2, _mm_sub_pd(mod_s1, y));
        // y is exactly ±1.0: its top two bits are 00 (+1.0) or 10 (-1.0), so
        // (bits >> 62) is 0 or 2 and 1 - (bits >> 62) is the ±1 feedback.
        const __m128i y_int =
            _mm_sub_epi64(one_i, _mm_srli_epi64(_mm_castpd_si128(y), 62));
        cic_i0 = _mm_add_epi64(cic_i0, y_int);
        cic_i1 = _mm_add_epi64(cic_i1, cic_i0);
        cic_i2 = _mm_add_epi64(cic_i2, cic_i1);

        if (++phase != decimation) return;
        phase = 0;
        // CIC combs at the decimated rate, then the shared quantization tail.
        alignas(16) std::int64_t i2_lanes[2];
        _mm_store_si128(reinterpret_cast<__m128i*>(i2_lanes), cic_i2);
        std::int64_t vm = i2_lanes[0];
        std::int64_t prev = m_c0;
        m_c0 = vm;
        vm -= prev;
        prev = m_c1;
        m_c1 = vm;
        vm -= prev;
        prev = m_c2;
        m_c2 = vm;
        vm -= prev;
        std::int64_t vr = i2_lanes[1];
        prev = r_c0;
        r_c0 = vr;
        vr -= prev;
        prev = r_c1;
        r_c1 = vr;
        vr -= prev;
        prev = r_c2;
        r_c2 = vr;
        vr -= prev;
        *pcm_meas++ = DeltaSigmaAdc::quantize(vm, full_scale, max_code, min_code);
        *pcm_ref++ = DeltaSigmaAdc::quantize(vr, full_scale, max_code, min_code);
    };

    std::size_t i = 0;
    if (n > 0 && !primed) {
        // Peeled priming tick (TankCircuit::step's one-shot branch): the
        // differentiator has no history yet, so both TIA voltages are zero
        // and no noise is drawn. Peeling it keeps the steady-state loop free
        // of the per-tick primed check.
        const double raw = to_volts(drive[0]);
        ra_s += ra_k * (raw - ra_s);
        rb_s += rb_k * (ra_s - rb_s);
        prev_drive = rb_s;
        primed = true;
        tick_channels(_mm_setzero_pd());
        i = 1;
    }
    for (; i < n; ++i) {
        const double raw = to_volts(drive[i]);
        // DAC reconstruction (RcFilter::step, twice) — single-channel, so it
        // stays scalar.
        ra_s += ra_k * (raw - ra_s);
        rb_s += rb_k * (ra_s - rb_s);
        const double drive_v = rb_s;

        // Tank branch currents -> TIA voltages (TankCircuit::step). Noise
        // draw order (meas, then ref, per tick) matches TankCircuit::step
        // exactly.
        const double dv_dt = (drive_v - prev_drive) * inv_dt;
        prev_drive = drive_v;
        const __m128d cur =
            _mm_add_pd(_mm_mul_pd(branch_c, _mm_set1_pd(dv_dt)),
                       _mm_mul_pd(branch_g, _mm_set1_pd(drive_v)));
        __m128d tia_v = _mm_mul_pd(cur, tia);
        if constexpr (kNoisy) {
            const double g_meas = rng.next_gaussian();
            const double g_ref = rng.next_gaussian();
            tia_v = _mm_add_pd(tia_v,
                               _mm_mul_pd(_mm_set1_pd(noise_rms),
                                          _mm_set_pd(g_ref, g_meas)));
        }
        tick_channels(tia_v);
    }

    // Unpack the vector state into the scalar locals for the shared
    // write-back below.
    alignas(16) double lanes[2];
    _mm_store_pd(lanes, alias_a_s);
    ma_s = lanes[0];
    fa_s = lanes[1];
    _mm_store_pd(lanes, alias_b_s);
    mb_s = lanes[0];
    fb_s = lanes[1];
    _mm_store_pd(lanes, mod_s1);
    m_s1 = lanes[0];
    r_s1 = lanes[1];
    _mm_store_pd(lanes, mod_s2);
    m_s2 = lanes[0];
    r_s2 = lanes[1];
    alignas(16) std::int64_t ilanes[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(ilanes), cic_i0);
    m_i0 = ilanes[0];
    r_i0 = ilanes[1];
    _mm_store_si128(reinterpret_cast<__m128i*>(ilanes), cic_i1);
    m_i1 = ilanes[0];
    r_i1 = ilanes[1];
    _mm_store_si128(reinterpret_cast<__m128i*>(ilanes), cic_i2);
    m_i2 = ilanes[0];
    r_i2 = ilanes[1];
#else
    for (std::size_t i = 0; i < n; ++i) {
        const double raw = to_volts(drive[i]);
        // DAC reconstruction (RcFilter::step, twice).
        ra_s += ra_k * (raw - ra_s);
        rb_s += rb_k * (ra_s - rb_s);
        const double drive_v = rb_s;

        // Tank branch currents -> TIA voltages (TankCircuit::step). The
        // priming branch runs once per front-end lifetime and predicts
        // perfectly afterwards. Noise draw order (meas, then ref, per tick)
        // matches TankCircuit::step exactly.
        double meas_v = 0.0;
        double ref_v = 0.0;
        if (!primed) {
            prev_drive = drive_v;
            primed = true;
        } else {
            const double dv_dt = (drive_v - prev_drive) * inv_dt;
            prev_drive = drive_v;
            const double i_meas = c_probe * dv_dt + drive_v * g_leak;
            const double i_ref = c_ref * dv_dt;
            meas_v = i_meas * tia_gain;
            ref_v = i_ref * tia_gain;
            if constexpr (kNoisy) {
                meas_v += noise_rms * rng.next_gaussian();
                ref_v += noise_rms * rng.next_gaussian();
            }
        }

        // Anti-alias filters.
        ma_s += ma_k * (meas_v - ma_s);
        mb_s += mb_k * (ma_s - mb_s);
        fa_s += fa_k * (ref_v - fa_s);
        fb_s += fb_k * (fa_s - fb_s);

        // Delta-sigma modulators + CIC integrators (DeltaSigmaAdc::step).
        // The feedback sign is selected branchlessly: the data-dependent
        // `s2 >= 0.0 ? 1.0 : -1.0` compiles to an unpredictable branch (the
        // bitstream is pseudo-random by design), and copysign(1.0, s2) is
        // value-identical because s2 only ever accumulates round-to-nearest
        // sums of finite values — it can never become -0.0 or NaN.
        {
            const double clipped = std::clamp(mb_s, -1.0, 1.0);
            const double y = std::copysign(1.0, m_s2);
            m_s1 += clipped - y;
            m_s2 += m_s1 - y;
            m_i0 += static_cast<std::int64_t>(y);
            m_i1 += m_i0;
            m_i2 += m_i1;
        }
        {
            const double clipped = std::clamp(fb_s, -1.0, 1.0);
            const double y = std::copysign(1.0, r_s2);
            r_s1 += clipped - y;
            r_s2 += r_s1 - y;
            r_i0 += static_cast<std::int64_t>(y);
            r_i1 += r_i0;
            r_i2 += r_i1;
        }

        if (++phase < decimation) continue;
        phase = 0;
        // CIC combs at the decimated rate, then the shared quantization tail.
        std::int64_t vm = m_i2;
        std::int64_t prev = m_c0;
        m_c0 = vm;
        vm -= prev;
        prev = m_c1;
        m_c1 = vm;
        vm -= prev;
        prev = m_c2;
        m_c2 = vm;
        vm -= prev;
        std::int64_t vr = r_i2;
        prev = r_c0;
        r_c0 = vr;
        vr -= prev;
        prev = r_c1;
        r_c1 = vr;
        vr -= prev;
        prev = r_c2;
        r_c2 = vr;
        vr -= prev;
        *pcm_meas++ = DeltaSigmaAdc::quantize(vm, full_scale, max_code, min_code);
        *pcm_ref++ = DeltaSigmaAdc::quantize(vr, full_scale, max_code, min_code);
    }
#endif

    // Write every piece of state back to the components so per-sample steps,
    // resets and further blocks continue seamlessly.
    recon_.a_.state_ = ra_s;
    recon_.b_.state_ = rb_s;
    alias_meas_.a_.state_ = ma_s;
    alias_meas_.b_.state_ = mb_s;
    alias_ref_.a_.state_ = fa_s;
    alias_ref_.b_.state_ = fb_s;
    tank_.prev_drive_ = prev_drive;
    tank_.primed_ = primed;
    tank_.rng_ = rng;
    adc_meas_.s1_ = m_s1;
    adc_meas_.s2_ = m_s2;
    adc_ref_.s1_ = r_s1;
    adc_ref_.s2_ = r_s2;
    adc_meas_.integ_[0] = m_i0;
    adc_meas_.integ_[1] = m_i1;
    adc_meas_.integ_[2] = m_i2;
    adc_ref_.integ_[0] = r_i0;
    adc_ref_.integ_[1] = r_i1;
    adc_ref_.integ_[2] = r_i2;
    adc_meas_.comb_[0] = m_c0;
    adc_meas_.comb_[1] = m_c1;
    adc_meas_.comb_[2] = m_c2;
    adc_ref_.comb_[0] = r_c0;
    adc_ref_.comb_[1] = r_c1;
    adc_ref_.comb_[2] = r_c2;
    adc_meas_.phase_ = phase;
    adc_ref_.phase_ = phase;
    return pairs;
}

std::size_t FrontEnd::run_block_ds(std::span<const std::uint8_t> bits,
                                   SampleBlock& out) {
    // Branchless ±1 V select, exactly equal to `b ? 1.0 : -1.0` (the bit
    // stream alternates pseudo-randomly, so a conditional mispredicts; a
    // two-entry table load is cheaper than an integer->double conversion).
    static constexpr double kBitVolts[2] = {-1.0, 1.0};
    const auto to_volts = [](std::uint8_t b) { return kBitVolts[b != 0]; };
    // Zero configured noise skips the Gaussian synthesis entirely (see
    // TankCircuit::step): a zero-RMS draw only contributes a signed zero,
    // which cannot change any downstream sample.
    const std::size_t pairs =
        tank_.params_.noise_rms_v > 0.0
            ? run_block_impl<true>(bits.data(), bits.size(), out, to_volts)
            : run_block_impl<false>(bits.data(), bits.size(), out, to_volts);
    record_block(bits.size(), pairs);
    return pairs;
}

std::size_t FrontEnd::run_block_code8(std::span<const std::uint8_t> codes,
                                      SampleBlock& out) {
    const auto to_volts = [](std::uint8_t c) {
        return (static_cast<double>(c) - 128.0) / 128.0;
    };
    const std::size_t pairs =
        tank_.params_.noise_rms_v > 0.0
            ? run_block_impl<true>(codes.data(), codes.size(), out, to_volts)
            : run_block_impl<false>(codes.data(), codes.size(), out, to_volts);
    record_block(codes.size(), pairs);
    return pairs;
}

void FrontEnd::set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    if (recorder_ == nullptr) return;
    obs::MetricRegistry& m = recorder_->metrics();
    ticks_metric_ = m.counter("frontend.ticks_total");
    pairs_metric_ = m.counter("frontend.pcm_pairs_total");
    blocks_metric_ = m.counter("frontend.blocks_total");
}

void FrontEnd::record_block(std::size_t ticks, std::size_t pairs) {
    // Per-block, not per-tick: the fused kernel never sees the recorder, so
    // the disabled cost is this one null/flag check per run_block_* call.
    if (recorder_ == nullptr || !recorder_->enabled()) return;
    obs::MetricRegistry& m = recorder_->metrics();
    m.add(ticks_metric_, static_cast<double>(ticks));
    m.add(pairs_metric_, static_cast<double>(pairs));
    m.add(blocks_metric_, 1.0);
}

std::optional<FrontEnd::PcmPair> FrontEnd::step_ds_bit(bool bit) {
    const std::uint8_t drive = bit ? 1 : 0;
    step_scratch_.clear_pcm();
    if (run_block_ds({&drive, 1}, step_scratch_) == 1)
        return PcmPair{step_scratch_.meas[0], step_scratch_.ref[0]};
    return std::nullopt;
}

std::optional<FrontEnd::PcmPair> FrontEnd::step_code8(std::uint8_t code) {
    step_scratch_.clear_pcm();
    if (run_block_code8({&code, 1}, step_scratch_) == 1)
        return PcmPair{step_scratch_.meas[0], step_scratch_.ref[0]};
    return std::nullopt;
}

}  // namespace refpga::analog
