#include "refpga/analog/frontend.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>

#include "refpga/common/contracts.hpp"

// The fused block kernel carries the measurement and reference channels as
// the two lanes of one 128-bit vector (GCC/Clang vector extensions): lane 0
// is the measurement channel, lane 1 the reference channel. Vector IEEE-754
// ops are lane-wise identical to their scalar counterparts, so the kernel
// produces bit-identical PCM to the per-sample oracle
// (analog::FrontEndReference in the test-support library). The one
// target-specific piece is the input clamp's lane-wise max/min.
#if defined(__SSE2__)
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

/// One value per channel: [0] measurement, [1] reference.
typedef double F64x2 __attribute__((vector_size(16)));
typedef std::int64_t I64x2 __attribute__((vector_size(16)));
typedef std::uint64_t U64x2 __attribute__((vector_size(16)));

// Lane-wise max(a, b) and min(a, b) as maxpd and minpd define them: a when
// the compare holds, else b. GCC 12 turns a vector `?:` into compare and
// mask ops rather than maxpd/minpd, so SSE2 targets take the intrinsics.
#if defined(__SSE2__)
F64x2 lane_max(F64x2 a, F64x2 b) { return _mm_max_pd(a, b); }
F64x2 lane_min(F64x2 a, F64x2 b) { return _mm_min_pd(a, b); }
#else
F64x2 lane_max(F64x2 a, F64x2 b) { return a > b ? a : b; }
F64x2 lane_min(F64x2 a, F64x2 b) { return a < b ? a : b; }
#endif

/// Writes a two-lane value back to the channels' own copies.
template <typename V, typename T>
void unpack(V v, T& meas, T& ref) {
    meas = v[0];
    ref = v[1];
}

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
    F64x2 branch_c;  // {c_probe, c_ref}
    // The reference lane has no leak path; `+ drive_v * 0.0` contributes a
    // signed zero, the additive identity for every double, so the lane stays
    // equal to the scalar `c_ref * dv_dt`.
    F64x2 branch_g;  // {g_leak, 0}
    double tia_gain;

    /// Both TIA voltages of the next tick.
    F64x2 next() {
        const double raw = drive.next();
        ra += ra_k * (raw - ra);
        rb += rb_k * (ra - rb);
        const double drive_v = rb;
        const double dv_dt = (drive_v - prev) * inv_dt;
        prev = drive_v;
        return (branch_c * dv_dt + branch_g * drive_v) * tia_gain;
    }
};

/// One tabulated period of noise-free TIA voltages, replayed from entry 0.
struct OrbitTank {
    const double* tia;  ///< meas, ref per tick
    std::size_t period;
    std::size_t k = 0;  ///< entry of the next tick

    F64x2 next() {
        F64x2 v;
        std::memcpy(&v, tia + 2 * k, sizeof v);
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
        const F64x2 v = tank.next();
        std::memcpy(tia + 2 * k, &v, sizeof v);
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
    const F64x2 alias_a_k{alias_meas_.a_.alpha_, alias_ref_.a_.alpha_};
    const F64x2 alias_b_k{alias_meas_.b_.alpha_, alias_ref_.b_.alpha_};
    F64x2 alias_a{alias_meas_.a_.state_, alias_ref_.a_.state_};
    F64x2 alias_b{alias_meas_.b_.state_, alias_ref_.b_.state_};
    // Tank noise. Draw order (meas, then ref, per tick) matches
    // TankCircuit::step exactly.
    const double noise_rms = tank_.params_.noise_rms_v;
    Rng rng = tank_.rng_;  // keeps the xoshiro state in registers
    // Delta-sigma modulators + CIC integrators/combs.
    F64x2 mod_s1{adc_meas_.s1_, adc_ref_.s1_};
    F64x2 mod_s2{adc_meas_.s2_, adc_ref_.s2_};
    I64x2 cic_i0{adc_meas_.integ_[0], adc_ref_.integ_[0]};
    I64x2 cic_i1{adc_meas_.integ_[1], adc_ref_.integ_[1]};
    I64x2 cic_i2{adc_meas_.integ_[2], adc_ref_.integ_[2]};
    I64x2 cic_c0{adc_meas_.comb_[0], adc_ref_.comb_[0]};
    I64x2 cic_c1{adc_meas_.comb_[1], adc_ref_.comb_[1]};
    I64x2 cic_c2{adc_meas_.comb_[2], adc_ref_.comb_[2]};
    int phase = adc_meas_.phase_;
    const F64x2 one{1.0, 1.0};
    const U64x2 sign_bit = std::bit_cast<U64x2>(F64x2{-0.0, -0.0});
    const U64x2 one_bits = std::bit_cast<U64x2>(one);
    // One comb stage: its output is the input less the stage's last input.
    const auto comb = [](I64x2& last, I64x2 v) {
        const I64x2 d = v - last;
        last = v;
        return d;
    };

    for (std::size_t i = 0; i < n; ++i) {
        F64x2 tia = tank.next();
        if constexpr (kNoisy) {
            const double g_meas = rng.next_gaussian();
            const double g_ref = rng.next_gaussian();
            tia += noise_rms * F64x2{g_meas, g_ref};
        }

        // Anti-alias filters.
        alias_a += alias_a_k * (tia - alias_a);
        alias_b += alias_b_k * (alias_a - alias_b);

        // Delta-sigma modulators + CIC integrators (DeltaSigmaAdc::step).
        // min(max(x, -1), 1) matches std::clamp for every finite input
        // including signed zeros. The feedback sign is selected branchlessly:
        // the data-dependent `s2 >= 0.0 ? 1.0 : -1.0` compiles to an
        // unpredictable branch (the bitstream is pseudo-random by design),
        // and or(and(s2, sign bit), 1.0) is copysign(1.0, s2), value-identical
        // because s2 only ever accumulates round-to-nearest sums of finite
        // values — it can never become -0.0 or NaN.
        const F64x2 clipped = lane_min(lane_max(alias_b, -one), one);
        const U64x2 y_bits = (std::bit_cast<U64x2>(mod_s2) & sign_bit) | one_bits;
        const F64x2 y = std::bit_cast<F64x2>(y_bits);
        mod_s1 += clipped - y;
        mod_s2 += mod_s1 - y;
        // y is exactly ±1.0: its top two bits are 00 (+1.0) or 10 (-1.0), so
        // (bits >> 62) is 0 or 2 and 1 - (bits >> 62) is the ±1 feedback.
        cic_i0 += 1 - std::bit_cast<I64x2>(y_bits >> 62);
        cic_i1 += cic_i0;
        cic_i2 += cic_i1;

        if (++phase != decimation) continue;
        phase = 0;
        // CIC combs at the decimated rate, then the PCM code table.
        const I64x2 v = comb(cic_c2, comb(cic_c1, comb(cic_c0, cic_i2)));
        *pcm_meas++ = pcm_lookup(codes, cic_range, v[0]);
        *pcm_ref++ = pcm_lookup(codes, cic_range, v[1]);
    }

    // Write the downstream state back to the components so resets and
    // further blocks continue seamlessly; the caller writes back the tank's.
    source = tank;
    unpack(alias_a, alias_meas_.a_.state_, alias_ref_.a_.state_);
    unpack(alias_b, alias_meas_.b_.state_, alias_ref_.b_.state_);
    tank_.rng_ = rng;
    unpack(mod_s1, adc_meas_.s1_, adc_ref_.s1_);
    unpack(mod_s2, adc_meas_.s2_, adc_ref_.s2_);
    unpack(cic_i0, adc_meas_.integ_[0], adc_ref_.integ_[0]);
    unpack(cic_i1, adc_meas_.integ_[1], adc_ref_.integ_[1]);
    unpack(cic_i2, adc_meas_.integ_[2], adc_ref_.integ_[2]);
    unpack(cic_c0, adc_meas_.comb_[0], adc_ref_.comb_[0]);
    unpack(cic_c1, adc_meas_.comb_[1], adc_ref_.comb_[1]);
    unpack(cic_c2, adc_meas_.comb_[2], adc_ref_.comb_[2]);
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
                    F64x2{c_probe, c_ref},
                    F64x2{tank_.g_leak_, 0.0},
                    tank_.params_.tia_gain_v_per_a};

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
