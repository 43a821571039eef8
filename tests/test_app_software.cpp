// Software-baseline tests: the MicroBlaze firmware must agree with the
// golden pipeline (exactly where its arithmetic is exact, within documented
// tolerance where the soft-multiply route pre-scales), and its cost structure
// must reproduce the paper's observations (>60 KB image, multi-ms runtime,
// SRAM and soft-multiply as the dominant factors).
#include <gtest/gtest.h>

#include <cmath>

#include "refpga/app/golden.hpp"
#include "refpga/app/software.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/soc/assembler.hpp"
#include "refpga/soc/isa.hpp"

namespace refpga::app {
namespace {

AppParams params() { return AppParams{}; }

std::vector<std::int32_t> tone_window(const AppParams& p, double amp, double phi) {
    std::vector<std::int32_t> w(static_cast<std::size_t>(p.window));
    for (int n = 0; n < p.window; ++n)
        w[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(
            std::lround(amp * std::sin(2.0 * M_PI * p.bin * n / p.window + phi)));
    return w;
}

TEST(Software, SourceAssembles) {
    const std::string src = measurement_source(params());
    EXPECT_NO_THROW((void)soc::assemble(src));
}

TEST(Software, ImageExceedsSixtyKilobytes) {
    // §4.2: "the software algorithms required more than 60 Kbyte of memory,
    // which made it necessary to store the code in external SRAM".
    const auto program = soc::assemble(measurement_source(params()));
    EXPECT_GT(program.size_bytes() - 0x80000000u, 60u * 1024u);
    // The 58 KB firmware bulk is a `.space` reservation: it counts towards
    // the image extent but emits no words.
    EXPECT_EQ(program.size_bytes() - 0x80000000u, 63'356u);
    EXPECT_LT(program.words.size() * 4, 4u * 1024u);
}

TEST(Software, PhaseAndExactStagesMatchGolden) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const auto meas = tone_window(p, 1500.0, 0.4);
    const auto ref = tone_window(p, 900.0, -0.2);
    const SoftwareRun run = SoftCore(p).run(meas, ref);

    const auto acc = golden::accumulate_window(meas, ref, p, tables);
    const auto gm = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables);
    const auto gr = golden::amp_phase(acc.i_ref, acc.q_ref, p, tables);
    // Phases are computed with identical integer CORDIC: exact.
    EXPECT_EQ(run.phase_meas, gm.phase);
    EXPECT_EQ(run.phase_ref, gr.phase);
    // Amplitudes use the documented pre-scaled soft-multiply: small error.
    EXPECT_NEAR(static_cast<double>(run.amp_meas), static_cast<double>(gm.amplitude),
                6.0);
    EXPECT_NEAR(static_cast<double>(run.amp_ref), static_cast<double>(gr.amplitude),
                6.0);
}

TEST(Software, HwMultiplierVariantAmplitudeIsExact) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const auto meas = tone_window(p, 1500.0, 0.4);
    const auto ref = tone_window(p, 900.0, -0.2);
    SoftwareConfig config;
    config.hw_multiplier = true;
    const SoftwareRun run = SoftCore(p, config).run(meas, ref);

    const auto acc = golden::accumulate_window(meas, ref, p, tables);
    const auto gm = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables);
    const auto gr = golden::amp_phase(acc.i_ref, acc.q_ref, p, tables);
    EXPECT_EQ(run.amp_meas, gm.amplitude);
    EXPECT_EQ(run.amp_ref, gr.amplitude);
    EXPECT_EQ(run.phase_meas, gm.phase);

    // With exact amplitudes, ratio/capacity/level are exact too.
    const auto cap = golden::capacity(gm, gr, p, tables);
    EXPECT_EQ(run.ratio_q12, cap.ratio_q12);
    EXPECT_EQ(run.cap_pf_q4, cap.cap_pf_q4);
    golden::FilterState filter(p);
    golden::FilterState::Output out{};
    for (int i = 0; i < 64; ++i) out = filter.step(cap.cap_pf_q4);
    EXPECT_EQ(run.level_q15, out.level_q15);
}

TEST(Software, CapacityCloseToGoldenWithSoftMultiply) {
    const AppParams p = params();
    const auto meas = tone_window(p, 1650.0, 0.1);
    const auto ref = tone_window(p, 1100.0, 0.1);
    const SoftwareRun run = SoftCore(p).run(meas, ref);
    // Expected C ~ 1.5 * C_ref = 330 pF.
    EXPECT_NEAR(static_cast<double>(run.cap_pf_q4) / 16.0, 330.0, 6.0);
}

TEST(Software, RuntimeIsMilliseconds) {
    // The 7 ms headline: legacy configuration (soft multiply, SRAM code).
    const AppParams p = params();
    const auto meas = tone_window(p, 1200.0, 0.0);
    const auto ref = tone_window(p, 1000.0, 0.0);
    const SoftwareRun run = SoftCore(p).run(meas, ref);
    const double seconds = run.seconds(p.system_clock_hz);
    EXPECT_GT(seconds, 2e-3);
    EXPECT_LT(seconds, 20e-3);
}

TEST(Software, HwMultiplierSpeedsUpSignificantly) {
    const AppParams p = params();
    const auto meas = tone_window(p, 1200.0, 0.0);
    const auto ref = tone_window(p, 1000.0, 0.0);
    const SoftwareRun soft = SoftCore(p).run(meas, ref);
    SoftwareConfig config;
    config.hw_multiplier = true;
    const SoftwareRun hw = SoftCore(p, config).run(meas, ref);
    EXPECT_LT(hw.cycles, soft.cycles / 2);
}

TEST(Software, BramResidentCodeIsFaster) {
    // The rewrite direction: the same kernel without the firmware bulk and
    // fetched from LMB BRAM runs several times faster.
    const AppParams p = params();
    const auto meas = tone_window(p, 1200.0, 0.0);
    const auto ref = tone_window(p, 1000.0, 0.0);
    const SoftwareRun sram = SoftCore(p).run(meas, ref);

    // code_in_sram=false assembles from address 0; the data buffers stay in
    // SRAM (they model the converters' buffers).
    SoftwareConfig bram_config;
    bram_config.code_in_sram = false;
    bram_config.padding_bytes = 0;
    const SoftwareRun bram = SoftCore(p, bram_config).run(meas, ref);
    EXPECT_EQ(bram.phase_meas, sram.phase_meas);  // identical results
    EXPECT_LT(bram.cycles, sram.cycles / 2);
}

TEST(Software, DeterministicAcrossRuns) {
    const AppParams p = params();
    const auto meas = tone_window(p, 800.0, 1.0);
    const auto ref = tone_window(p, 700.0, 0.5);
    SoftCore core(p);
    const SoftwareRun a = core.run(meas, ref);
    const SoftwareRun b = core.run(meas, ref);
    EXPECT_EQ(a.level_q15, b.level_q15);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Software, ImageMustEndBelowTheSampleBuffers) {
    // The SRAM image starts at code_base; the sample buffers begin 128 KB
    // above it. The kernel plus 127,108 bytes of bulk ends exactly at
    // meas_buf; one more word would be overwritten by every window.
    const AppParams p = params();
    const SoftwareLayout layout;
    const auto meas = tone_window(p, 1200.0, 0.0);
    const auto ref = tone_window(p, 1000.0, 0.0);

    SoftwareConfig fits;
    fits.padding_bytes = 127'108;
    SoftCore core(p, fits);
    const SoftwareRun run = core.run(meas, ref);
    EXPECT_EQ(run.code_bytes, layout.meas_buf - layout.code_base);
    EXPECT_EQ(run.level_q15, SoftCore(p).run(meas, ref).level_q15);

    SoftwareConfig overlaps;
    overlaps.padding_bytes = 127'112;
    EXPECT_THROW({ SoftCore core2(p, overlaps); }, ContractViolation);
    overlaps.padding_bytes = 200 * 1024;
    EXPECT_THROW({ SoftCore core2(p, overlaps); }, ContractViolation);
}

/// FNV-1a over every (address, word) pair of an image, bytes little-endian.
std::uint64_t image_digest(const soc::Program& program) {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            h ^= (v >> (8 * i)) & 0xFFu;
            h *= 1099511628211ULL;
        }
    };
    for (const auto& [addr, word] : program.words) {
        mix(addr);
        mix(word);
    }
    return h;
}

TEST(Software, DefaultImagesAreWordForWordUnchanged) {
    // Parameter-derived constants outside addi's field load with lui/ori,
    // and the CORDIC half-turn is written as -32768: the same word as the
    // 32768 the assembler used to wrap. Every default image keeps the
    // words it had before immediates were range-checked.
    struct Pin {
        bool hw_multiplier;
        bool code_in_sram;
        std::size_t words;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {false, true, 991, 0xb93fd99e9c1c9378ULL},
        {true, true, 982, 0xdc0c3b25edff7341ULL},
        {false, false, 991, 0x9a0fb1de5edd18f8ULL},
        {true, false, 982, 0xb889096e7f416541ULL},
    };
    soc::Instruction half_turn;
    half_turn.op = soc::Opcode::Addi;
    half_turn.rd = 28;
    half_turn.imm = -32768;
    for (const Pin& pin : pins) {
        SoftwareConfig config;
        config.hw_multiplier = pin.hw_multiplier;
        config.code_in_sram = pin.code_in_sram;
        const soc::Program program = soc::assemble(measurement_source(params(), config));
        EXPECT_EQ(program.words.size(), pin.words);
        EXPECT_EQ(image_digest(program), pin.digest)
            << "hw_multiplier " << pin.hw_multiplier << ", code_in_sram "
            << pin.code_in_sram;
        std::size_t half_turns = 0;
        for (const auto& [addr, word] : program.words)
            half_turns += word == soc::encode(half_turn) ? 1 : 0;
        EXPECT_EQ(half_turns, 1u);
    }
}

TEST(Software, NarrowSpanLevelMatchesGolden) {
    // A 60-100 pF span makes the level slope 52,429 (Q10), wider than addi's
    // signed field. Loaded with addi, it read as -13,107 and the level
    // saturated at 32,767 where the golden pipeline reads mid-span.
    AppParams p = params();
    p.c_full_pf = 100.0;
    p.validate();
    const golden::Tables tables(p);
    const auto meas = tone_window(p, 400.0, 0.1);
    const auto ref = tone_window(p, 1100.0, 0.1);
    SoftwareConfig config;
    config.hw_multiplier = true;
    const SoftwareRun run = SoftCore(p, config).run(meas, ref);

    const auto acc = golden::accumulate_window(meas, ref, p, tables);
    const auto cap =
        golden::capacity(golden::amp_phase(acc.i_meas, acc.q_meas, p, tables),
                         golden::amp_phase(acc.i_ref, acc.q_ref, p, tables), p, tables);
    golden::FilterState filter(p);
    golden::FilterState::Output out{};
    for (int i = 0; i < 64; ++i) out = filter.step(cap.cap_pf_q4);
    EXPECT_EQ(run.cap_pf_q4, cap.cap_pf_q4);
    EXPECT_GT(out.level_q15, 0u);
    EXPECT_LT(out.level_q15, 32767u);
    EXPECT_EQ(run.level_q15, out.level_q15);
}

}  // namespace
}  // namespace refpga::app
