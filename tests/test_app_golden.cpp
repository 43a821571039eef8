#include <gtest/gtest.h>

#include <cmath>

#include "refpga/app/golden.hpp"
#include "refpga/app/tables.hpp"

namespace refpga::app {
namespace {

AppParams params() { return AppParams{}; }

/// Synthetic window: amplitude `amp` (PCM counts), phase `phi` radians at the
/// correlation bin.
std::vector<std::int32_t> tone_window(const AppParams& p, double amp, double phi) {
    std::vector<std::int32_t> w(static_cast<std::size_t>(p.window));
    for (int n = 0; n < p.window; ++n)
        w[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(
            std::lround(amp * std::sin(2.0 * M_PI * p.bin * n / p.window + phi)));
    return w;
}

// ---------------------------------------------------------------- tables

TEST(Tables, SineTableSymmetry) {
    const auto t = sine_table(256, 10);
    EXPECT_EQ(t[0], 0);
    EXPECT_EQ(t[64], 511);   // quarter period
    EXPECT_EQ(t[192], -511);
    for (int i = 1; i < 128; ++i) EXPECT_EQ(t[128 + i], -t[i]) << i;
}

TEST(Tables, CosIsShiftedSine) {
    const auto s = sine_table(256, 10);
    const auto c = cosine_table(256, 10);
    for (int i = 0; i < 256; ++i) EXPECT_EQ(c[i], s[(i + 64) % 256]) << i;
}

TEST(Tables, AtanTableDecreasing) {
    const auto t = cordic_atan_table(12, 16);
    EXPECT_EQ(t[0], 8192);  // atan(1) = 1/8 turn
    for (std::size_t i = 1; i < t.size(); ++i) EXPECT_LT(t[i], t[i - 1]);
}

TEST(Tables, CordicGainForTwelveStages) {
    // 1/K = 0.607253 -> Q15 = 19898.
    EXPECT_NEAR(cordic_inv_gain_q15(12), 19898, 1);
}

TEST(Tables, SignedEncodingRoundTrip) {
    for (const std::int32_t v : {0, 1, -1, 511, -512, 1000, -1000})
        EXPECT_EQ(decode_signed(encode_signed(v, 11), 11), v) << v;
}

TEST(Tables, GoldenTableSetComesFromTheGenerators) {
    const AppParams p = params();
    const golden::Tables t(p);
    EXPECT_EQ(t.sin, sine_table(p.window, p.table_bits));
    EXPECT_EQ(t.cos, cosine_table(p.window, p.table_bits));
    EXPECT_EQ(t.cos256, cosine_table(256, p.cos_table_bits));
    EXPECT_EQ(t.atan, cordic_atan_table(p.cordic_stages, p.angle_bits));
    EXPECT_EQ(t.inv_gain_q15, cordic_inv_gain_q15(p.cordic_stages));
}

// ---------------------------------------------------------------- cordic

TEST(GoldenCordic, KnownAngles) {
    const AppParams p = params();
    const golden::Tables tables(p);
    // 45 degrees: atan2(1000, 1000) = 1/8 turn = 8192.
    const auto r45 = golden::cordic_vector(20000, 20000, p, tables);
    EXPECT_NEAR(static_cast<double>(r45.angle), 8192.0, 40.0);
    // 0 degrees (result may land just below 2^16 due to rounding).
    const auto r0 = golden::cordic_vector(30000, 0, p, tables);
    const auto wrapped = std::min(r0.angle, 65536u - r0.angle);
    EXPECT_LE(wrapped, 60u);
    // 90 degrees = 16384.
    const auto r90 = golden::cordic_vector(0, 30000, p, tables);
    EXPECT_NEAR(static_cast<double>(r90.angle), 16384.0, 40.0);
}

TEST(GoldenCordic, NegativeXQuadrants) {
    const AppParams p = params();
    const golden::Tables tables(p);
    // 135 degrees = 24576 turns units.
    const auto r = golden::cordic_vector(-20000, 20000, p, tables);
    EXPECT_NEAR(static_cast<double>(r.angle), 24576.0, 40.0);
    // -135 degrees = 40960 (mod 2^16).
    const auto r2 = golden::cordic_vector(-20000, -20000, p, tables);
    EXPECT_NEAR(static_cast<double>(r2.angle), 40960.0, 40.0);
}

class CordicSweep : public ::testing::TestWithParam<int> {};

TEST_P(CordicSweep, MagnitudeAndAngleTrackAtan2) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const double deg = GetParam();
    const double rad = deg * M_PI / 180.0;
    const auto x = static_cast<std::int32_t>(30000 * std::cos(rad));
    const auto y = static_cast<std::int32_t>(30000 * std::sin(rad));
    const auto r = golden::cordic_vector(x, y, p, tables);
    // Magnitude carries the CORDIC gain K = 1.6468.
    EXPECT_NEAR(r.magnitude, 30000 * 1.6468, 30000 * 0.01);
    const double got_turns = static_cast<double>(r.angle) / 65536.0;
    double want_turns = rad / (2.0 * M_PI);
    if (want_turns < 0) want_turns += 1.0;
    double diff = std::abs(got_turns - want_turns);
    if (diff > 0.5) diff = 1.0 - diff;
    EXPECT_LT(diff, 0.001) << deg << " degrees";
}

INSTANTIATE_TEST_SUITE_P(Angles, CordicSweep,
                         ::testing::Values(3, 30, 60, 89, 91, 150, 179, 181, 225,
                                           269, 300, 357));

// ---------------------------------------------------------------- amp/phase

TEST(GoldenAmpPhase, RecoversAmplitudeOfSyntheticTone) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const auto meas = tone_window(p, 1500.0, 0.3);
    const auto ref = tone_window(p, 1000.0, 0.0);
    const auto acc = golden::accumulate_window(meas, ref, p, tables);
    const auto m = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables);
    const auto r = golden::amp_phase(acc.i_ref, acc.q_ref, p, tables);
    // Amplitude ratio should track 1.5.
    EXPECT_NEAR(static_cast<double>(m.amplitude) / r.amplitude, 1.5, 0.02);
}

TEST(GoldenAmpPhase, PhaseDifferenceRecovered) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const double dphi = 0.7;  // radians
    const auto meas = tone_window(p, 1200.0, dphi);
    const auto ref = tone_window(p, 1200.0, 0.0);
    const auto acc = golden::accumulate_window(meas, ref, p, tables);
    const auto m = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables);
    const auto r = golden::amp_phase(acc.i_ref, acc.q_ref, p, tables);
    // Convention: the correlator computes atan2(Q, I) with I = sum x*cos and
    // Q = sum x*sin, which maps a signal phase lead of dphi to a *decrease*
    // of the reported angle. Only |delta| matters downstream (cos is even).
    const auto delta = (r.phase - m.phase) & 0xFFFFu;
    const double got = static_cast<double>(delta) / 65536.0 * 2.0 * M_PI;
    EXPECT_NEAR(got, dphi, 0.02);
}

TEST(GoldenAmpPhase, ZeroInputGivesZeroAmplitude) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const std::vector<std::int32_t> zeros(static_cast<std::size_t>(p.window), 0);
    const auto acc = golden::accumulate_window(zeros, zeros, p, tables);
    EXPECT_EQ(acc.i_meas, 0);
    EXPECT_EQ(acc.q_meas, 0);
    const auto m = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables);
    EXPECT_EQ(m.amplitude, 0u);
}

// ---------------------------------------------------------------- divide

TEST(GoldenDivide, ExactQuotients) {
    EXPECT_EQ(golden::divide_sat(1000, 1000, 12, 14), 4096u);  // ratio 1.0
    EXPECT_EQ(golden::divide_sat(1500, 1000, 12, 14), 6144u);  // ratio 1.5
    EXPECT_EQ(golden::divide_sat(1, 2, 12, 14), 2048u);        // ratio 0.5
    EXPECT_EQ(golden::divide_sat(0, 55, 12, 14), 0u);
}

TEST(GoldenDivide, SaturatesOnOverflowAndZeroDivisor) {
    EXPECT_EQ(golden::divide_sat(60000, 1, 12, 14), 16383u);
    EXPECT_EQ(golden::divide_sat(7, 0, 12, 14), 16383u);
}

class DivideSweep : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(DivideSweep, MatchesWideIntegerReference) {
    const auto [num, den] = GetParam();
    const std::uint64_t wide = (static_cast<std::uint64_t>(num) << 12) / den;
    const std::uint32_t expected =
        wide > 16383 ? 16383u : static_cast<std::uint32_t>(wide);
    EXPECT_EQ(golden::divide_sat(num, den, 12, 14), expected);
}

INSTANTIATE_TEST_SUITE_P(Cases, DivideSweep,
                         ::testing::Values(std::pair{100u, 7u}, std::pair{65535u, 65535u},
                                           std::pair{1u, 65535u}, std::pair{40000u, 9999u},
                                           std::pair{12345u, 6789u}, std::pair{3u, 1u}));

// ---------------------------------------------------------------- capacity

TEST(GoldenCapacity, EqualChannelsGiveCref) {
    const AppParams p = params();
    const golden::Tables tables(p);
    golden::ChannelResult m{1000, 0};
    golden::ChannelResult r{1000, 0};
    const auto cap = golden::capacity(m, r, p, tables);
    // ratio 1.0, cos(0) = 1 -> C = C_ref.
    EXPECT_NEAR(static_cast<double>(cap.cap_pf_q4) / 16.0, p.c_ref_pf,
                p.c_ref_pf * 0.01);
}

TEST(GoldenCapacity, RatioScalesCapacity) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const auto cap2 = golden::capacity({2000, 0}, {1000, 0}, p, tables);
    EXPECT_NEAR(static_cast<double>(cap2.cap_pf_q4) / 16.0, 2.0 * p.c_ref_pf,
                p.c_ref_pf * 0.02);
}

TEST(GoldenCapacity, PhaseShiftReducesCapacitiveComponent) {
    const AppParams p = params();
    const golden::Tables tables(p);
    // 60 degrees phase difference: cos = 0.5.
    const std::uint32_t dphi60 = 65536u / 6u;
    const auto cap = golden::capacity({1000, dphi60}, {1000, 0}, p, tables);
    EXPECT_NEAR(static_cast<double>(cap.cap_pf_q4) / 16.0, 0.5 * p.c_ref_pf,
                p.c_ref_pf * 0.02);
}

TEST(GoldenCapacity, NegativeCosineClampsToZero) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const std::uint32_t dphi180 = 32768u;
    const auto cap = golden::capacity({1000, dphi180}, {1000, 0}, p, tables);
    EXPECT_EQ(cap.cap_pf_q4, 0u);
}

// ---------------------------------------------------------------- filter

TEST(GoldenFilter, ConvergesToConstantInput) {
    const AppParams p = params();
    golden::FilterState filter(p);
    const std::uint32_t cap = static_cast<std::uint32_t>(270.0 * 16.0);  // 270 pF
    golden::FilterState::Output out{};
    for (int i = 0; i < 200; ++i) out = filter.step(cap);
    const double expected_level =
        (270.0 - p.c_empty_pf) / (p.c_full_pf - p.c_empty_pf);
    EXPECT_NEAR(static_cast<double>(out.level_q15) / 32768.0, expected_level, 0.01);
}

TEST(GoldenFilter, MedianRejectsSingleOutlier) {
    const AppParams p = params();
    golden::FilterState with_spike(p);
    golden::FilterState without(p);
    const std::uint32_t cap = 4000;
    for (int i = 0; i < 50; ++i) {
        (void)without.step(cap);
        (void)with_spike.step(i == 25 ? 60000u : cap);
    }
    // One spike is absorbed by the median: EMA states stay close.
    EXPECT_NEAR(static_cast<double>(with_spike.ema()), static_cast<double>(without.ema()),
                2.0);
}

TEST(GoldenFilter, AlarmsAtExtremes) {
    const AppParams p = params();
    golden::FilterState filter(p);
    golden::FilterState::Output out{};
    for (int i = 0; i < 300; ++i)
        out = filter.step(static_cast<std::uint32_t>(p.c_full_q4()));
    EXPECT_TRUE(out.alarm_high);
    EXPECT_FALSE(out.alarm_low);

    golden::FilterState low(p);
    for (int i = 0; i < 300; ++i)
        out = low.step(static_cast<std::uint32_t>(p.c_empty_q4()));
    EXPECT_TRUE(out.alarm_low);
}

TEST(GoldenFilter, LevelClampedToQ15) {
    const AppParams p = params();
    golden::FilterState filter(p);
    golden::FilterState::Output out{};
    for (int i = 0; i < 300; ++i) out = filter.step(0xFFFF);
    EXPECT_EQ(out.level_q15, 32767u);
}

// ---------------------------------------------------------------- end-to-end

TEST(GoldenPipeline, WindowToLevelTracksRatio) {
    const AppParams p = params();
    const golden::Tables tables(p);
    golden::FilterState filter(p);
    // Simulated channels: meas amplitude corresponds to C = 1.5 * C_ref = 330 pF.
    const auto meas = tone_window(p, 1650.0, 0.0);
    const auto ref = tone_window(p, 1100.0, 0.0);
    golden::CycleResult result;
    for (int i = 0; i < 100; ++i)
        result = golden::process_window(meas, ref, filter, p, tables);
    EXPECT_NEAR(static_cast<double>(result.cap.cap_pf_q4) / 16.0, 330.0, 5.0);
    const double expected_level = (330.0 - p.c_empty_pf) / (p.c_full_pf - p.c_empty_pf);
    EXPECT_NEAR(static_cast<double>(result.level.level_q15) / 32768.0,
                expected_level, 0.02);
}

}  // namespace
}  // namespace refpga::app
