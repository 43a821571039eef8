#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "refpga/analog/delta_sigma.hpp"
#include "refpga/analog/dsp.hpp"
#include "refpga/analog/frontend.hpp"
#include "refpga/analog/sample_block.hpp"
#include "refpga/analog/tank.hpp"
#include "refpga/common/contracts.hpp"

namespace refpga::analog {
namespace {

// ---------------------------------------------------------------- dsp

TEST(Dsp, FftOfImpulseIsFlat) {
    std::vector<std::complex<double>> x(8, {0.0, 0.0});
    x[0] = {1.0, 0.0};
    fft(x);
    for (const auto& v : x) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(Dsp, FftOfSineConcentratesInBin) {
    const int n = 256;
    const int k = 10;
    std::vector<double> x(n);
    for (int i = 0; i < n; ++i) x[i] = std::sin(2.0 * M_PI * k * i / n);
    const auto spec = fft_real(x);
    // Bin k carries amplitude n/2.
    EXPECT_NEAR(std::abs(spec[k]), n / 2.0, 1e-9);
    EXPECT_LT(std::abs(spec[k + 3]), 1e-9);
}

TEST(Dsp, FftRejectsNonPowerOfTwo) {
    std::vector<std::complex<double>> x(6);
    EXPECT_THROW(fft(x), ContractViolation);
}

TEST(Dsp, GoertzelMatchesFftBin) {
    const int n = 128;
    const int k = 7;
    std::vector<double> x(n);
    for (int i = 0; i < n; ++i)
        x[i] = 0.8 * std::cos(2.0 * M_PI * k * i / n + 0.6);
    const AmpPhase g = goertzel(x, k);
    EXPECT_NEAR(g.amplitude, 0.8, 1e-9);
    EXPECT_NEAR(g.phase_rad, 0.6, 1e-9);
}

TEST(Dsp, AnalyzeToneOfPureSine) {
    const int n = 4096;
    const int k = 64;
    std::vector<double> x(n);
    for (int i = 0; i < n; ++i) x[i] = 0.5 * std::sin(2.0 * M_PI * k * i / n);
    const ToneQuality q = analyze_tone(x, k);
    EXPECT_NEAR(q.fundamental_amplitude, 0.5, 0.02);
    EXPECT_LT(q.thd_db, -80.0);
    EXPECT_GT(q.sndr_db, 80.0);
}

TEST(Dsp, AnalyzeToneSeesDistortion) {
    const int n = 4096;
    const int k = 64;
    std::vector<double> clean(n);
    std::vector<double> dirty(n);
    for (int i = 0; i < n; ++i) {
        const double w = 2.0 * M_PI * k * i / n;
        clean[i] = std::sin(w);
        dirty[i] = std::sin(w) + 0.05 * std::sin(3 * w);
    }
    EXPECT_GT(analyze_tone(dirty, k).thd_db, analyze_tone(clean, k).thd_db + 30.0);
}

// ---------------------------------------------------------------- filters & modulators

TEST(RcFilter, StepResponseConvergesToInput) {
    RcFilter f(1e5, 1e7);
    double y = 0.0;
    for (int i = 0; i < 2000; ++i) y = f.step(1.0);
    EXPECT_NEAR(y, 1.0, 1e-3);
}

TEST(RcFilter, AttenuatesHighFrequency) {
    // 1 kHz cutoff, 1 MHz sampling: a 100 kHz tone should be crushed.
    RcFilter f(1e3, 1e6);
    double peak = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double y = f.step(std::sin(2.0 * M_PI * 1e5 * i / 1e6));
        if (i > 10000) peak = std::max(peak, std::abs(y));
    }
    EXPECT_LT(peak, 0.05);
}

TEST(DeltaSigmaDac, MeanTracksInput) {
    DeltaSigmaDac dac;
    for (const double u : {0.0, 0.5, -0.7, 0.9}) {
        dac.reset();
        double sum = 0.0;
        const int n = 20000;
        for (int i = 0; i < n; ++i) sum += dac.step(u);
        EXPECT_NEAR(sum / n, u, 0.01) << u;
    }
}

TEST(DeltaSigmaDac, OutputIsBinary) {
    DeltaSigmaDac dac;
    for (int i = 0; i < 100; ++i) {
        const double y = dac.step(0.3);
        EXPECT_TRUE(y == 1.0 || y == -1.0);
    }
}

TEST(DeltaSigmaAdc, DecimationRateHonoured) {
    DeltaSigmaAdc adc(8, 12);
    int outputs = 0;
    for (int i = 0; i < 80; ++i)
        if (adc.step(0.0)) ++outputs;
    EXPECT_EQ(outputs, 10);
}

class AdcLinearity : public ::testing::TestWithParam<double> {};

TEST_P(AdcLinearity, DcInputRecoveredProportionally) {
    const double u = GetParam();
    DeltaSigmaAdc adc(8, 12);
    double sum = 0.0;
    int count = 0;
    int seen = 0;
    for (int i = 0; i < 400000 && count < 2000; ++i) {
        const auto s = adc.step(u);
        if (!s) continue;
        ++seen;
        if (seen > 100) {  // skip CIC settling
            sum += *s;
            ++count;
        }
    }
    ASSERT_EQ(count, 2000);
    const double mean = sum / count / 2047.0;  // normalize to [-1, 1]
    EXPECT_NEAR(mean, u, 0.02) << u;
}

INSTANTIATE_TEST_SUITE_P(DcLevels, AdcLinearity,
                         ::testing::Values(-0.8, -0.3, 0.0, 0.25, 0.6));

// The recursive CIC (integrators at the modulator rate, combs at the
// decimated rate) must equal its textbook definition: the modulator bit
// stream convolved with ones(R) three times — a direct O(N*R) triple
// moving average — sampled at every R-th tick, then quantized identically.
TEST(DeltaSigmaAdc, CicMatchesMovingAverageReference) {
    for (const int decim : {2, 5, 8, 32}) {
        DeltaSigmaAdc adc(decim, 12);

        // w = ones(R) convolved with itself twice more (length 3R - 2).
        std::vector<std::int64_t> w(1, 1);
        for (int stage = 0; stage < 3; ++stage) {
            std::vector<std::int64_t> next(w.size() + decim - 1, 0);
            for (std::size_t i = 0; i < w.size(); ++i)
                for (int j = 0; j < decim; ++j) next[i + j] += w[i];
            w = std::move(next);
        }

        // Run the ADC while mirroring its modulator to capture the +/-1
        // bit stream the CIC actually integrates.
        const int outputs = 60;
        const int n = outputs * decim;
        double s1 = 0.0;
        double s2 = 0.0;
        std::vector<std::int64_t> bits;
        std::vector<std::int32_t> actual;
        for (int i = 0; i < n; ++i) {
            const double u = 0.4 * std::sin(2.0 * M_PI * i / (7.0 * decim)) + 0.1;
            const double y = s2 >= 0.0 ? 1.0 : -1.0;
            s1 += std::clamp(u, -1.0, 1.0) - y;
            s2 += s1 - y;
            bits.push_back(y > 0.0 ? 1 : -1);
            if (const auto pcm = adc.step(u)) actual.push_back(*pcm);
        }
        ASSERT_EQ(actual.size(), static_cast<std::size_t>(outputs));

        const double full_scale = std::pow(static_cast<double>(decim), 3.0);
        for (int m = 0; m < outputs; ++m) {
            const int t = (m + 1) * decim - 1;  // tick of the m-th PCM output
            std::int64_t v = 0;
            for (std::size_t j = 0; j < w.size() && static_cast<int>(j) <= t; ++j)
                v += w[j] * bits[static_cast<std::size_t>(t) - j];
            EXPECT_EQ(actual[static_cast<std::size_t>(m)],
                      DeltaSigmaAdc::quantize(v, full_scale,
                                              static_cast<double>(adc.max_code()),
                                              static_cast<double>(adc.min_code())))
                << "R=" << decim << " m=" << m;
        }
    }
}

TEST(DeltaSigmaAdc, QuantizeClampsSymmetrically) {
    // 8-bit range [-128, 127]: positive overloads saturate at max_code,
    // negative overloads at min_code — not at -max_code as the old
    // asymmetric clamp did.
    EXPECT_EQ(DeltaSigmaAdc::quantize(64, 64.0, 127.0, -128.0), 127);
    EXPECT_EQ(DeltaSigmaAdc::quantize(-64, 64.0, 127.0, -128.0), -127);
    EXPECT_EQ(DeltaSigmaAdc::quantize(70, 64.0, 127.0, -128.0), 127);
    EXPECT_EQ(DeltaSigmaAdc::quantize(-70, 64.0, 127.0, -128.0), -128);
    EXPECT_EQ(DeltaSigmaAdc::quantize(0, 64.0, 127.0, -128.0), 0);
}

TEST(DeltaSigmaAdc, OutputFitsOutputBitsUnderOverdrive) {
    DeltaSigmaAdc probe(4, 8);
    EXPECT_EQ(probe.max_code(), 127);
    EXPECT_EQ(probe.min_code(), -128);
    // Slam the modulator against both rails (inputs are clipped to [-1, 1]
    // internally): every PCM word must stay inside the 8-bit range.
    for (const double u : {-5.0, -1.0, 1.0, 5.0}) {
        DeltaSigmaAdc adc(4, 8);
        for (int i = 0; i < 400; ++i) {
            if (const auto s = adc.step(u)) {
                EXPECT_GE(*s, adc.min_code());
                EXPECT_LE(*s, adc.max_code());
            }
        }
    }
}

// ---------------------------------------------------------------- tank

TEST(Tank, CapacitanceTracksLevel) {
    TankParams params;
    TankCircuit tank(params, 16e6);
    tank.set_level(0.0);
    EXPECT_DOUBLE_EQ(tank.probe_capacitance_pf(), params.c_empty_pf);
    tank.set_level(1.0);
    EXPECT_DOUBLE_EQ(tank.probe_capacitance_pf(), params.c_full_pf);
    tank.set_level(0.5);
    EXPECT_DOUBLE_EQ(tank.probe_capacitance_pf(),
                     (params.c_empty_pf + params.c_full_pf) / 2.0);
}

TEST(Tank, LevelFromCapacitanceInverts) {
    TankParams params;
    for (double level : {0.0, 0.25, 0.5, 0.99}) {
        const double c =
            params.c_empty_pf + level * (params.c_full_pf - params.c_empty_pf);
        EXPECT_NEAR(level_from_capacitance(params, c), level, 1e-12);
    }
    EXPECT_EQ(level_from_capacitance(params, 0.0), 0.0);        // clamps
    EXPECT_EQ(level_from_capacitance(params, 1e6), 1.0);
}

TEST(Tank, SineDriveAmplitudeMatchesClosedForm) {
    TankParams params;
    params.noise_rms_v = 0.0;
    const double fs = 16e6;
    const double f = 500e3;
    TankCircuit tank(params, fs);
    tank.set_level(0.7);

    double peak_meas = 0.0;
    double peak_ref = 0.0;
    for (int i = 0; i < 4000; ++i) {
        const double drive = 0.5 * std::sin(2.0 * M_PI * f * i / fs);
        const auto out = tank.step(drive);
        if (i > 1000) {
            peak_meas = std::max(peak_meas, std::abs(out.meas_v));
            peak_ref = std::max(peak_ref, std::abs(out.ref_v));
        }
    }
    EXPECT_NEAR(peak_meas, 0.5 * std::abs(tank.meas_response(f)), 0.03 * peak_meas);
    EXPECT_NEAR(peak_ref, 0.5 * std::abs(tank.ref_response(f)), 0.03 * peak_ref);
}

TEST(Tank, MeasAmplitudeGrowsWithLevel) {
    TankParams params;
    params.noise_rms_v = 0.0;
    auto peak_at = [&](double level) {
        TankCircuit tank(params, 16e6);
        tank.set_level(level);
        double peak = 0.0;
        for (int i = 0; i < 3000; ++i) {
            const double drive = 0.5 * std::sin(2.0 * M_PI * 500e3 * i / 16e6);
            const auto out = tank.step(drive);
            if (i > 1000) peak = std::max(peak, std::abs(out.meas_v));
        }
        return peak;
    };
    EXPECT_GT(peak_at(0.9), 2.0 * peak_at(0.1));
}

// ---------------------------------------------------------------- front end

/// The on-chip DAC's drive: `ticks` delta-sigma bits of a 500 kHz sine at
/// `amplitude`, one per 16 MHz modulator tick.
std::vector<std::uint8_t> ds_sine_bits(int ticks, double amplitude) {
    DeltaSigmaDac dac;
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(ticks));
    for (int i = 0; i < ticks; ++i)
        bits[static_cast<std::size_t>(i)] =
            dac.step(amplitude * std::sin(2.0 * M_PI * 500e3 * i / 16e6)) > 0.0;
    return bits;
}

/// Index of the first PCM pair fired after modulator tick `tick`, a multiple
/// of adc_decimation: pair k fires on tick (k + 1) * adc_decimation - 1.
std::size_t first_pair_after(int tick, const FrontEnd& fe) {
    return static_cast<std::size_t>(tick / fe.config().adc_decimation);
}

TEST(FrontEnd, ProducesPcmAtDecimatedRate) {
    FrontEnd fe;
    fe.tank().set_level(0.5);
    const int steps = 16 * 100;
    SampleBlock pcm;
    const std::size_t pcm_count = fe.run_block_ds(ds_sine_bits(steps, 0.8), pcm);
    EXPECT_EQ(pcm_count, static_cast<std::size_t>(steps / fe.config().adc_decimation));
}

TEST(FrontEnd, MeasChannelSeesLevelDifference) {
    auto rms_at = [&](double level) {
        FrontEnd fe;
        fe.tank().set_level(level);
        SampleBlock pcm;
        fe.run_block_ds(ds_sine_bits(16 * 2000, 0.8), pcm);
        double sum2 = 0.0;
        int n = 0;
        for (std::size_t k = first_pair_after(16 * 1000, fe); k < pcm.meas.size(); ++k) {
            sum2 += static_cast<double>(pcm.meas[k]) * pcm.meas[k];
            ++n;
        }
        return std::sqrt(sum2 / n);
    };
    EXPECT_GT(rms_at(0.9), 1.5 * rms_at(0.1));
}

TEST(FrontEnd, DsBitDriveProducesCleanTone) {
    // The §4.1 check: delta-sigma DAC at 16 MSPS still yields a usable
    // 500 kHz excitation after reconstruction.
    FrontEnd fe;
    fe.tank().set_level(0.5);
    SampleBlock pcm;
    fe.run_block_ds(ds_sine_bits(16 * 6000, 0.8), pcm);
    std::vector<double> ref_samples;
    for (std::size_t k = first_pair_after(16 * 1000, fe);
         k < pcm.ref.size() && ref_samples.size() < 4096; ++k)
        ref_samples.push_back(static_cast<double>(pcm.ref[k]) / 2047.0);
    ASSERT_EQ(ref_samples.size(), 4096u);
    // PCM rate = 3.2 MHz, tone 500 kHz -> bin = 4096 * 500/3200 = 640.
    const ToneQuality q = analyze_tone(ref_samples, 640);
    EXPECT_GT(q.fundamental_amplitude, 0.10);
    // Per-sample SNDR is bounded by the delta-sigma in-band noise at this
    // modest oversampling; the pipeline's 256-sample correlation adds ~21 dB
    // of processing gain on top (verified in the system tests).
    EXPECT_GT(q.sndr_db, 10.0);
    EXPECT_LT(q.thd_db, -15.0);
    // The tone must actually sit at bin 640: scan for the spectral peak.
    const auto spec = fft_real(ref_samples);
    std::size_t peak = 1;
    for (std::size_t k = 1; k < spec.size() / 2; ++k)
        if (std::abs(spec[k]) > std::abs(spec[peak])) peak = k;
    EXPECT_EQ(peak, 640u);
}

}  // namespace
}  // namespace refpga::analog
