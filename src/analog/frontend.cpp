#include "refpga/analog/frontend.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>

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
    // config fails at the front-end boundary with the offending field named;
    // the decimation bound is tighter, so the PCM code table stays small.
    REFPGA_EXPECTS(adc_decimation >= 2 && adc_decimation <= kMaxAdcDecimation);
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

// Raw DAC volts of a drive byte: a delta-sigma bit, nonzero = +1 V.
constexpr std::array<double, 256> kBitVolts = [] {
    std::array<double, 256> volts{};
    for (std::size_t b = 0; b < volts.size(); ++b) volts[b] = b != 0 ? 1.0 : -1.0;
    return volts;
}();

#if REFPGA_FRONTEND_SSE2
/// Both TIA voltages of one tick. Vector lane convention: low lane =
/// measurement channel, high lane = reference channel.
using Tia = __m128d;
#else
/// Both TIA voltages of one tick.
struct Tia {
    double meas;
    double ref;
};
#endif

/// The PCM code of CIC output v, from a table centred on v = 0. The index
/// check stays on in release builds: one compare, off the critical path.
std::int32_t pcm_lookup(const std::int32_t* centre, std::int64_t range,
                        std::int64_t v) {
    REFPGA_EXPECTS(static_cast<std::uint64_t>(v + range) <=
                   static_cast<std::uint64_t>(2 * range));
    return centre[v];
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A drive sequence read in place: the k-th byte of `bytes` through
/// kBitVolts, wrapping after `period` bytes (an arbitrary drive is one
/// period long and never wraps).
struct Drive {
    const std::uint8_t* bytes;
    std::size_t period;
    std::size_t k;  ///< index of the next tick's byte

    double next() {
        const double v = kBitVolts[bytes[k]];
        if (++k == period) k = 0;
        return v;
    }
};

/// DAC reconstruction and tank branch currents of a primed front end, one
/// tick per next(): RcFilter::step twice, then TankCircuit::step without
/// its noise, operation for operation. The kernel copies it into locals.
struct ReconTank {
    Drive drive;
    double ra_k, rb_k;  // reconstruction poles
    double ra, rb;      // their states
    double prev;        // the differentiator's last input
    double inv_dt;
#if REFPGA_FRONTEND_SSE2
    __m128d branch_c;  // {c_probe, c_ref}
    // High lane has no leak path; `+ drive_v * 0.0` contributes a signed
    // zero, the additive identity for every double, so the lane stays equal
    // to the scalar `c_ref * dv_dt`.
    __m128d branch_g;  // {g_leak, 0}
    __m128d tia_gain;
#else
    double c_probe, c_ref, g_leak, tia_gain;
#endif

    Tia next() {
        const double raw = drive.next();
        ra += ra_k * (raw - ra);
        rb += rb_k * (ra - rb);
        const double drive_v = rb;
        const double dv_dt = (drive_v - prev) * inv_dt;
        prev = drive_v;
#if REFPGA_FRONTEND_SSE2
        return _mm_mul_pd(_mm_add_pd(_mm_mul_pd(branch_c, _mm_set1_pd(dv_dt)),
                                     _mm_mul_pd(branch_g, _mm_set1_pd(drive_v))),
                          tia_gain);
#else
        const double i_meas = c_probe * dv_dt + drive_v * g_leak;
        const double i_ref = c_ref * dv_dt;
        return {i_meas * tia_gain, i_ref * tia_gain};
#endif
    }
};

/// One tabulated period of noise-free TIA voltages, replayed from entry 0.
struct OrbitTank {
    const double* tia;  ///< meas, ref per tick
    std::size_t period;
    std::size_t k = 0;  ///< entry of the next tick

    Tia next() {
#if REFPGA_FRONTEND_SSE2
        const Tia v = _mm_loadu_pd(tia + 2 * k);
#else
        const Tia v{tia[2 * k], tia[2 * k + 1]};
#endif
        if (++k == period) k = 0;
        return v;
    }
};

/// Runs one period of `tank` (a copy), recording the reconstruction state
/// before each tick and each tick's TIA voltages. True when the period ends
/// on its starting state bit for bit: every later period then repeats the
/// recorded one exactly, since nothing else feeds the reconstruction or the
/// branch currents.
bool tabulate_orbit(ReconTank tank, std::size_t period, double* tia, double* state) {
    const ReconTank start = tank;
    for (std::size_t k = 0; k < period; ++k) {
        state[3 * k] = tank.ra;
        state[3 * k + 1] = tank.rb;
        state[3 * k + 2] = tank.prev;
        const Tia v = tank.next();
#if REFPGA_FRONTEND_SSE2
        _mm_storeu_pd(tia + 2 * k, v);
#else
        tia[2 * k] = v.meas;
        tia[2 * k + 1] = v.ref;
#endif
    }
    return same_bits(tank.ra, start.ra) && same_bits(tank.rb, start.rb) &&
           same_bits(tank.prev, start.prev);
}

}  // namespace

FrontEnd::FrontEnd(FrontEndConfig config, std::uint64_t noise_seed)
    : config_(validated(config)),
      tank_(config.tank, config.modulator_hz, noise_seed),
      recon_(config.recon_cutoff_hz, config.modulator_hz),
      alias_meas_(config.antialias_cutoff_hz, config.modulator_hz),
      alias_ref_(config.antialias_cutoff_hz, config.modulator_hz),
      adc_meas_(config.adc_decimation, config.adc_bits),
      adc_ref_(config.adc_decimation, config.adc_bits) {
    // A 3-stage CIC fed ±1 has gain R^3, so its output lies in [-R^3, R^3].
    const std::int64_t r = config.adc_decimation;
    cic_range_ = r * r * r;
    pcm_codes_.resize(static_cast<std::size_t>(2 * cic_range_ + 1));
    const auto max_code = static_cast<double>(adc_meas_.max_code());
    const auto min_code = static_cast<double>(adc_meas_.min_code());
    for (std::int64_t v = -cic_range_; v <= cic_range_; ++v)
        pcm_codes_[static_cast<std::size_t>(v + cic_range_)] =
            DeltaSigmaAdc::quantize(v, adc_meas_.full_scale_, max_code, min_code);
}

long FrontEnd::ticks_for_pcm(long pcm_pairs) const {
    REFPGA_EXPECTS(pcm_pairs >= 0);
    const long ticks = pcm_pairs * adc_meas_.decimation_ - adc_meas_.phase_;
    return std::max(0L, ticks);
}

std::int32_t FrontEnd::pcm_code(std::int64_t cic_output) const {
    return pcm_lookup(pcm_codes_.data() + cic_range_, cic_range_, cic_output);
}

// ---------------------------------------------------------------------------
// Fused block kernel
// ---------------------------------------------------------------------------
//
// One pass over the block with every piece of pipeline state downstream of
// the tank — four anti-alias RC poles, the noise RNG, two modulators and two
// 3-stage CIC decimators — held in locals, and the tank's noise-free TIA
// voltages from `tank` (a ReconTank computing them, or an OrbitTank
// replaying a tabulated period), so the compiler keeps the whole chain in
// registers and the only per-tick memory traffic is the drive or table read
// and the (1/decimation-rate) PCM write. The arithmetic is copied operation
// for operation from the component step() implementations; any deviation
// breaks the bit-identity contract pinned by tests/test_frontend_stream.

template <bool kNoisy, typename Tank>
std::size_t FrontEnd::run_block_impl(std::size_t n, SampleBlock& out, Tank& source) {
    REFPGA_EXPECTS(adc_meas_.phase_ == adc_ref_.phase_ &&
                   adc_meas_.decimation_ == adc_ref_.decimation_);
    REFPGA_EXPECTS(tank_.primed_);
    const int decimation = adc_meas_.decimation_;
    const std::size_t pairs =
        (static_cast<std::size_t>(adc_meas_.phase_) + n) /
        static_cast<std::size_t>(decimation);

    const std::size_t base = out.meas.size();
    out.meas.resize(base + pairs);
    out.ref.resize(base + pairs);
    std::int32_t* pcm_meas = out.meas.data() + base;
    std::int32_t* pcm_ref = out.ref.data() + base;
    const std::int64_t cic_range = cic_range_;
    const std::int32_t* const codes = pcm_codes_.data() + cic_range;

    Tank tank = source;
    // Anti-alias low-passes, one per channel.
    const double ma_k = alias_meas_.a_.alpha_;
    const double mb_k = alias_meas_.b_.alpha_;
    double ma_s = alias_meas_.a_.state_;
    double mb_s = alias_meas_.b_.state_;
    const double fa_k = alias_ref_.a_.alpha_;
    const double fb_k = alias_ref_.b_.alpha_;
    double fa_s = alias_ref_.a_.state_;
    double fb_s = alias_ref_.b_.state_;
    // Tank noise. Draw order (meas, then ref, per tick) matches
    // TankCircuit::step exactly.
    const double noise_rms = tank_.params_.noise_rms_v;
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

#if REFPGA_FRONTEND_SSE2
    // Every packed op below performs the same IEEE-754 operation per lane
    // as the scalar fallback, in the same order, so the PCM stream is
    // bit-identical between the two loop bodies.
    const __m128d sign_mask = _mm_set1_pd(-0.0);
    const __m128d one = _mm_set1_pd(1.0);
    const __m128d neg_one = _mm_set1_pd(-1.0);
    const __m128i one_i = _mm_set1_epi64x(1);
    const __m128d alias_a_k = _mm_set_pd(fa_k, ma_k);
    const __m128d alias_b_k = _mm_set_pd(fb_k, mb_k);
    __m128d alias_a_s = _mm_set_pd(fa_s, ma_s);
    __m128d alias_b_s = _mm_set_pd(fb_s, mb_s);
    __m128d mod_s1 = _mm_set_pd(r_s1, m_s1);
    __m128d mod_s2 = _mm_set_pd(r_s2, m_s2);
    __m128i cic_i0 = _mm_set_epi64x(r_i0, m_i0);
    __m128i cic_i1 = _mm_set_epi64x(r_i1, m_i1);
    __m128i cic_i2 = _mm_set_epi64x(r_i2, m_i2);

    for (std::size_t i = 0; i < n; ++i) {
        __m128d tia_v = tank.next();
        if constexpr (kNoisy) {
            const double g_meas = rng.next_gaussian();
            const double g_ref = rng.next_gaussian();
            tia_v = _mm_add_pd(tia_v,
                               _mm_mul_pd(_mm_set1_pd(noise_rms),
                                          _mm_set_pd(g_ref, g_meas)));
        }

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

        if (++phase != decimation) continue;
        phase = 0;
        // CIC combs at the decimated rate, then the PCM code table.
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
        *pcm_meas++ = pcm_lookup(codes, cic_range, vm);
        *pcm_ref++ = pcm_lookup(codes, cic_range, vr);
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
        const Tia tia = tank.next();
        double meas_v = tia.meas;
        double ref_v = tia.ref;
        if constexpr (kNoisy) {
            meas_v += noise_rms * rng.next_gaussian();
            ref_v += noise_rms * rng.next_gaussian();
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
        // CIC combs at the decimated rate, then the PCM code table.
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
        *pcm_meas++ = pcm_lookup(codes, cic_range, vm);
        *pcm_ref++ = pcm_lookup(codes, cic_range, vr);
    }
#endif

    // Write the downstream state back to the components so resets and
    // further blocks continue seamlessly; the caller writes back the tank's.
    source = tank;
    alias_meas_.a_.state_ = ma_s;
    alias_meas_.b_.state_ = mb_s;
    alias_ref_.a_.state_ = fa_s;
    alias_ref_.b_.state_ = fb_s;
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

std::size_t FrontEnd::prime(double raw_v, SampleBlock& out) {
    // TankCircuit::step's one-shot first tick, once per front end: the
    // differentiator has no history yet, so both TIA voltages are zero and
    // no noise is drawn. Run through the components' own step(), which the
    // kernel mirrors, so the kernel loop never checks for it.
    tank_.prev_drive_ = recon_.step(raw_v);
    tank_.primed_ = true;
    const std::optional<std::int32_t> meas = adc_meas_.step(alias_meas_.step(0.0));
    const std::optional<std::int32_t> ref = adc_ref_.step(alias_ref_.step(0.0));
    if (!meas || !ref) return 0;
    out.meas.push_back(*meas);
    out.ref.push_back(*ref);
    return 1;
}

std::size_t FrontEnd::run_drive(std::span<const std::uint8_t> bits, std::size_t phase,
                                std::size_t n, bool periodic, SampleBlock& out) {
    Drive drive{bits.data(), bits.size(), phase};
    const std::size_t ticks = n;
    std::size_t pairs = 0;
    if (n > 0 && !tank_.primed_) {
        pairs += prime(drive.next(), out);
        --n;
    }
    // Zero configured noise skips the Gaussian synthesis entirely (see
    // TankCircuit::step): a zero-RMS draw only contributes a signed zero,
    // which cannot change any downstream sample.
    const bool noisy = tank_.params_.noise_rms_v > 0.0;
    const auto run = [&](auto& tank) {
        return noisy ? run_block_impl<true>(n, out, tank)
                     : run_block_impl<false>(n, out, tank);
    };

    // The level is fixed for the duration of a block (set_level happens
    // between blocks), so the probe capacitance is a block constant.
    const double c_probe = tank_.probe_capacitance_pf() * 1e-12;
    const double c_ref = tank_.params_.c_ref_pf * 1e-12;
    ReconTank recon{drive,
                    recon_.a_.alpha_,
                    recon_.b_.alpha_,
                    recon_.a_.state_,
                    recon_.b_.state_,
                    tank_.prev_drive_,
                    tank_.inv_dt_,
#if REFPGA_FRONTEND_SSE2
                    _mm_set_pd(c_ref, c_probe),
                    _mm_set_pd(0.0, tank_.g_leak_),
                    _mm_set1_pd(tank_.params_.tia_gain_v_per_a)};
#else
                    c_probe,
                    c_ref,
                    tank_.g_leak_,
                    tank_.params_.tia_gain_v_per_a};
#endif

    bool orbit = false;
    if (periodic && tank_.primed_ && n >= drive.period) {
        orbit_tia_.resize(2 * drive.period);
        orbit_state_.resize(3 * drive.period);
        orbit = tabulate_orbit(recon, drive.period, orbit_tia_.data(),
                               orbit_state_.data());
    }
    if (orbit) {
        OrbitTank tank{orbit_tia_.data(), drive.period};
        pairs += run(tank);
        // The block ends at orbit entry n mod period.
        const double* state = orbit_state_.data() + 3 * tank.k;
        recon_.a_.state_ = state[0];
        recon_.b_.state_ = state[1];
        tank_.prev_drive_ = state[2];
    } else if (n > 0) {
        pairs += run(recon);
        recon_.a_.state_ = recon.ra;
        recon_.b_.state_ = recon.rb;
        tank_.prev_drive_ = recon.prev;
    }
    record_block(ticks, pairs, orbit);
    return pairs;
}

std::size_t FrontEnd::run_block_ds(std::span<const std::uint8_t> bits,
                                   SampleBlock& out) {
    return run_drive(bits, 0, bits.size(), false, out);
}

std::size_t FrontEnd::run_periodic_ds(std::span<const std::uint8_t> period,
                                      std::size_t phase, std::size_t n,
                                      SampleBlock& out) {
    REFPGA_EXPECTS(phase < period.size());
    return run_drive(period, phase, n, true, out);
}

void FrontEnd::set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    if (recorder_ == nullptr) return;
    obs::MetricRegistry& m = recorder_->metrics();
    ticks_metric_ = m.counter("frontend.ticks_total");
    pairs_metric_ = m.counter("frontend.pcm_pairs_total");
    blocks_metric_ = m.counter("frontend.blocks_total");
    orbit_blocks_metric_ = m.counter("frontend.orbit_blocks_total");
}

void FrontEnd::record_block(std::size_t ticks, std::size_t pairs, bool orbit) {
    // Per-block, not per-tick: the fused kernel never sees the recorder, so
    // the disabled cost is this one null/flag check per block.
    if (recorder_ == nullptr || !recorder_->enabled()) return;
    obs::MetricRegistry& m = recorder_->metrics();
    m.add(ticks_metric_, static_cast<double>(ticks));
    m.add(pairs_metric_, static_cast<double>(pairs));
    m.add(blocks_metric_, 1.0);
    if (orbit) m.add(orbit_blocks_metric_, 1.0);
}

}  // namespace refpga::analog
