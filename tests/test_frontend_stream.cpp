// Parity suite for the block-streaming front end: the fused run_block_* and
// run_periodic_* kernel and the block-of-1 step_*() wrappers must stay
// bit-identical to the per-sample oracle (analog::FrontEndReference,
// test-support library) for every block partitioning, including the
// tank-noise RNG draw order and level changes between blocks; the system
// sample window, fault bookkeeping and whole campaign reports must be
// identical for every stream_block_ticks. Any divergence here means the
// streaming kernel changed the signal, not just its batching. The sinus
// generator's cached period and the PCM code table are pinned against the
// recurrence and the quantizer they replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "refpga/analog/delta_sigma.hpp"
#include "refpga/analog/frontend.hpp"
#include "refpga/analog/frontend_reference.hpp"
#include "refpga/analog/sample_block.hpp"
#include "refpga/app/hw_modules.hpp"
#include "refpga/app/system.hpp"
#include "refpga/app/tables.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/fleet/scenario.hpp"
#include "refpga/obs/obs.hpp"

namespace refpga {
namespace {

constexpr int kBlockSizes[] = {1, 7, 64, 4096};

// ---------------------------------------------------------- sinus generator

TEST(SinusGenStream, BlockBitsMatchPerTickSteps) {
    const std::size_t ticks = 1000;
    app::SinusGenModel per_tick{app::AppParams{}};
    app::SinusGenModel block{app::AppParams{}};
    std::vector<std::uint8_t> bits(ticks);
    std::vector<std::uint8_t> codes(ticks);
    block.run_block_bits(ticks, bits.data());
    app::SinusGenModel block2{app::AppParams{}};
    block2.run_block_codes(ticks, codes.data());
    for (std::size_t i = 0; i < ticks; ++i) {
        const app::SinusGenModel::Step s = per_tick.step();
        EXPECT_EQ(bits[i], s.ds_bit ? 1 : 0) << "tick " << i;
        EXPECT_EQ(codes[i], static_cast<std::uint8_t>(s.code8)) << "tick " << i;
    }
}

TEST(SinusGenStream, PeriodIsSixtyFourBitsAndThirtyTwoCodes) {
    const app::SinusGenModel gen{app::AppParams{}};
    ASSERT_EQ(gen.period(), 64u);
    EXPECT_EQ(gen.phase(), 0u);
    const std::span<const std::uint8_t> bits = gen.period_bits();
    const std::span<const std::uint8_t> codes = gen.period_codes();
    // Smallest shift under which a pattern repeats itself within one period.
    const auto min_period = [](std::span<const std::uint8_t> p) {
        for (std::size_t d = 1; d < p.size(); ++d) {
            if (p.size() % d != 0) continue;
            bool repeats = true;
            for (std::size_t i = 0; i + d < p.size() && repeats; ++i)
                repeats = p[i] == p[i + d];
            if (repeats) return d;
        }
        return p.size();
    };
    EXPECT_EQ(min_period(bits), 64u);
    EXPECT_EQ(min_period(codes), 32u);
}

TEST(SinusGenStream, CachedPeriodMatchesIntegratorRecurrence) {
    // The netlist's recurrence, written out independently: LUT address mod
    // 32, out bit from the current s2, s1 and s2 wrapping at 14 and 16 bits.
    const auto wrap = [](std::int32_t v, int bits) {
        const std::int32_t half = 1 << (bits - 1);
        return ((v + half) & ((1 << bits) - 1)) - half;
    };
    const std::vector<std::uint32_t> lut = app::sinus_dac_codes();
    ASSERT_EQ(lut.size(), 32u);
    const std::size_t ticks = 1 << 17;
    std::vector<std::uint8_t> want_bits(ticks);
    std::vector<std::uint8_t> want_codes(ticks);
    std::int32_t s1 = 0;
    std::int32_t s2 = 0;
    for (std::size_t i = 0; i < ticks; ++i) {
        const auto code = static_cast<std::int32_t>(lut[i % lut.size()]);
        const bool bit = s2 >= 0;
        const std::int32_t fb = bit ? 128 : -128;
        s1 = wrap(s1 + code - 128 - fb, 14);
        s2 = wrap(s2 + s1 - fb, 16);
        want_bits[i] = bit ? 1 : 0;
        want_codes[i] = static_cast<std::uint8_t>(code);
    }

    // Served from the cached period in ragged chunks, through both batch
    // entries, and read in place at the phase the generator reports.
    app::SinusGenModel bits_gen{app::AppParams{}};
    app::SinusGenModel codes_gen{app::AppParams{}};
    app::SinusGenModel in_place{app::AppParams{}};
    std::vector<std::uint8_t> bits(ticks);
    std::vector<std::uint8_t> codes(ticks);
    const std::size_t chunks[] = {1, 63, 64, 65, 1000, 4133};
    for (std::size_t at = 0, c = 0; at < ticks; ++c) {
        const std::size_t n = std::min(chunks[c % std::size(chunks)], ticks - at);
        bits_gen.run_block_bits(n, bits.data() + at);
        codes_gen.run_block_codes(n, codes.data() + at);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t k = (in_place.phase() + i) % in_place.period();
            ASSERT_EQ(in_place.period_bits()[k], want_bits[at + i]) << "tick " << at + i;
        }
        in_place.advance(n);
        at += n;
    }
    EXPECT_EQ(bits, want_bits);
    EXPECT_EQ(codes, want_codes);
}

// --------------------------------------------------------------- front end

struct PcmStream {
    std::vector<std::int32_t> meas;
    std::vector<std::int32_t> ref;
};

// Drive sequence shared by every partitioning: the real sinus generator's
// delta-sigma bits or DAC codes, so the parity run exercises the same
// waveforms the system does.
std::vector<std::uint8_t> make_drive(std::size_t ticks, bool ds_bits) {
    app::SinusGenModel gen{app::AppParams{}};
    std::vector<std::uint8_t> drive(ticks);
    if (ds_bits)
        gen.run_block_bits(ticks, drive.data());
    else
        gen.run_block_codes(ticks, drive.data());
    return drive;
}

analog::FrontEndConfig make_config(double noise_rms) {
    analog::FrontEndConfig config;
    config.tank.noise_rms_v = noise_rms;
    return config;
}

PcmStream reference_stream(const analog::FrontEndConfig& config,
                           const std::vector<std::uint8_t>& drive, bool ds_bits) {
    analog::FrontEndReference frontend(config, 42);
    frontend.tank().set_level(0.6);
    PcmStream stream;
    for (std::uint8_t d : drive) {
        const auto pcm = ds_bits ? frontend.step_ds_bit(d != 0)
                                 : frontend.step_code8(d);
        if (pcm) {
            stream.meas.push_back(pcm->meas);
            stream.ref.push_back(pcm->ref);
        }
    }
    return stream;
}

void expect_block_parity(double noise_rms, bool ds_bits) {
    // Deliberately not a multiple of any tested block size, so every
    // partitioning ends on a ragged tail and mid-decimation ADC phase.
    const std::size_t ticks = 12347;
    const std::vector<std::uint8_t> drive = make_drive(ticks, ds_bits);
    const analog::FrontEndConfig config = make_config(noise_rms);
    const PcmStream want = reference_stream(config, drive, ds_bits);
    ASSERT_EQ(want.meas.size(), ticks / static_cast<std::size_t>(config.adc_decimation));

    for (int block_size : kBlockSizes) {
        analog::FrontEnd frontend(config, 42);
        frontend.tank().set_level(0.6);
        analog::SampleBlock block;
        for (std::size_t at = 0; at < ticks;) {
            const std::size_t n =
                std::min<std::size_t>(static_cast<std::size_t>(block_size), ticks - at);
            const std::span<const std::uint8_t> chunk(drive.data() + at, n);
            if (ds_bits)
                frontend.run_block_ds(chunk, block);
            else
                frontend.run_block_code8(chunk, block);
            at += n;
        }
        EXPECT_EQ(block.meas, want.meas) << "block size " << block_size;
        EXPECT_EQ(block.ref, want.ref) << "block size " << block_size;
    }
}

TEST(FrontEndStream, DsDriveMatchesReferenceAcrossBlockSizes) {
    expect_block_parity(1e-3, true);
}

TEST(FrontEndStream, DsDriveNoiselessMatchesReference) {
    expect_block_parity(0.0, true);
}

TEST(FrontEndStream, Code8DriveMatchesReferenceAcrossBlockSizes) {
    expect_block_parity(1e-3, false);
}

TEST(FrontEndStream, Code8DriveNoiselessMatchesReference) {
    expect_block_parity(0.0, false);
}

// Block lengths, cycled: most are not a multiple of the generator's 64-tick
// period, so blocks start and end mid-period; 1280, 1280 starts two
// consecutive blocks at the same phase; 63 and 1 are shorter than a period.
constexpr std::size_t kPartitions[] = {4133, 1000, 4096, 777, 5000, 300,
                                       1280, 1280, 63, 64, 65, 1, 2048};

// One stream with a level change before every block: the oracle tick by
// tick, the front end one block per partition through `run`.
template <typename Run>
void expect_partition_parity(double noise_rms, const std::vector<std::uint8_t>& drive,
                             bool ds_bits, Run run, obs::Recorder* recorder = nullptr) {
    const analog::FrontEndConfig config = make_config(noise_rms);
    analog::FrontEndReference reference(config, 42);
    analog::FrontEnd frontend(config, 42);
    frontend.set_recorder(recorder);
    PcmStream want;
    analog::SampleBlock got;
    std::size_t at = 0;
    for (std::size_t b = 0; at < drive.size(); ++b) {
        const double level = 0.05 + 0.9 * static_cast<double>(b % 7) / 6.0;
        reference.tank().set_level(level);
        frontend.tank().set_level(level);
        const std::size_t n =
            std::min(kPartitions[b % std::size(kPartitions)], drive.size() - at);
        for (std::size_t i = at; i < at + n; ++i) {
            const auto pcm = ds_bits ? reference.step_ds_bit(drive[i] != 0)
                                     : reference.step_code8(drive[i]);
            if (pcm) {
                want.meas.push_back(pcm->meas);
                want.ref.push_back(pcm->ref);
            }
        }
        run(frontend, at, n, got);
        at += n;
    }
    ASSERT_EQ(got.meas.size(), want.meas.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < want.meas.size(); ++i)
        mismatches += (got.meas[i] != want.meas[i]) + (got.ref[i] != want.ref[i]);
    EXPECT_EQ(mismatches, 0u) << "of " << 2 * want.meas.size() << " PCM samples";
}

// The generator's period streamed in place through run_periodic_*: after
// the first blocks lock the reconstruction onto its orbit, the kernel
// replays a tabulated period per block, rebuilt after each level change.
void expect_periodic_parity(double noise_rms, bool ds_bits) {
    const app::SinusGenModel gen{app::AppParams{}};
    const std::span<const std::uint8_t> period =
        ds_bits ? gen.period_bits() : gen.period_codes();
    const std::size_t ticks = 60'000;
    std::vector<std::uint8_t> drive(ticks);
    for (std::size_t i = 0; i < ticks; ++i) drive[i] = period[i % period.size()];

    obs::Recorder recorder;
    expect_partition_parity(
        noise_rms, drive, ds_bits,
        [&](analog::FrontEnd& fe, std::size_t at, std::size_t n, analog::SampleBlock& out) {
            if (ds_bits)
                fe.run_periodic_ds(period, at % period.size(), n, out);
            else
                fe.run_periodic_code8(period, at % period.size(), n, out);
        },
        &recorder);
    // The replay path must actually have run, or the parity above pins only
    // the generic loop.
    EXPECT_GE(recorder.metrics().value("frontend.orbit_blocks_total"), 10.0);
}

TEST(FrontEndStream, PeriodicDsDriveMatchesReferenceAcrossLevelChanges) {
    expect_periodic_parity(1e-3, true);
}

TEST(FrontEndStream, PeriodicDsDriveNoiselessMatchesReference) {
    expect_periodic_parity(0.0, true);
}

TEST(FrontEndStream, PeriodicCode8DriveMatchesReferenceAcrossLevelChanges) {
    expect_periodic_parity(1e-3, false);
}

TEST(FrontEndStream, PeriodicCode8DriveNoiselessMatchesReference) {
    expect_periodic_parity(0.0, false);
}

// A seeded aperiodic drive pins the generic loop the same way, through both
// the arbitrary-drive entries and a periodic entry whose period is longer
// than any block (so it never replays).
void expect_aperiodic_parity(double noise_rms, bool ds_bits) {
    const std::size_t ticks = 40'000;
    std::vector<std::uint8_t> drive(ticks);
    Rng rng(2008);
    for (std::uint8_t& d : drive)
        d = static_cast<std::uint8_t>(ds_bits ? rng.next_below(2) : rng.next_below(256));

    expect_partition_parity(
        noise_rms, drive, ds_bits,
        [&](analog::FrontEnd& fe, std::size_t at, std::size_t n, analog::SampleBlock& out) {
            const std::span<const std::uint8_t> chunk(drive.data() + at, n);
            if (ds_bits)
                fe.run_block_ds(chunk, out);
            else
                fe.run_block_code8(chunk, out);
        });
    obs::Recorder recorder;
    expect_partition_parity(
        noise_rms, drive, ds_bits,
        [&](analog::FrontEnd& fe, std::size_t at, std::size_t n, analog::SampleBlock& out) {
            if (ds_bits)
                fe.run_periodic_ds(drive, at, n, out);
            else
                fe.run_periodic_code8(drive, at, n, out);
        },
        &recorder);
    EXPECT_EQ(recorder.metrics().value("frontend.orbit_blocks_total"), 0.0);
}

TEST(FrontEndStream, AperiodicDsDriveMatchesReferenceAcrossLevelChanges) {
    expect_aperiodic_parity(1e-3, true);
}

TEST(FrontEndStream, AperiodicDsDriveNoiselessMatchesReference) {
    expect_aperiodic_parity(0.0, true);
}

TEST(FrontEndStream, AperiodicCode8DriveMatchesReferenceAcrossLevelChanges) {
    expect_aperiodic_parity(1e-3, false);
}

TEST(FrontEndStream, AperiodicCode8DriveNoiselessMatchesReference) {
    expect_aperiodic_parity(0.0, false);
}

TEST(FrontEndStream, PeriodicEntryRejectsAPhaseOutsideThePeriod) {
    analog::FrontEnd frontend;
    analog::SampleBlock block;
    const std::vector<std::uint8_t> period(64, 1);
    EXPECT_THROW(frontend.run_periodic_ds(period, 64, 10, block), ContractViolation);
    EXPECT_THROW(frontend.run_periodic_code8({}, 0, 10, block), ContractViolation);
}

TEST(FrontEndStream, PcmCodeTableEqualsQuantizerAtEveryAdmittedDecimation) {
    for (int r = 2; r <= analog::FrontEndConfig::kMaxAdcDecimation; ++r) {
        analog::FrontEndConfig config;
        config.adc_decimation = r;
        const analog::FrontEnd frontend(config);
        const analog::DeltaSigmaAdc adc(r, config.adc_bits);
        const std::int64_t range = std::int64_t{r} * r * r;
        for (std::int64_t v = -range; v <= range; ++v)
            ASSERT_EQ(frontend.pcm_code(v),
                      analog::DeltaSigmaAdc::quantize(
                          v, static_cast<double>(range),
                          static_cast<double>(adc.max_code()),
                          static_cast<double>(adc.min_code())))
                << "decimation " << r << ", CIC output " << v;
        EXPECT_THROW((void)frontend.pcm_code(range + 1), ContractViolation);
        EXPECT_THROW((void)frontend.pcm_code(-range - 1), ContractViolation);
    }
}

TEST(FrontEndStream, StepWrappersMatchReferencePath) {
    const std::vector<std::uint8_t> drive = make_drive(4000, true);
    analog::FrontEnd wrapped(make_config(1e-3), 9);
    analog::FrontEndReference reference(make_config(1e-3), 9);
    wrapped.tank().set_level(0.3);
    reference.tank().set_level(0.3);
    for (std::uint8_t d : drive) {
        const auto a = wrapped.step_ds_bit(d != 0);
        const auto b = reference.step_ds_bit(d != 0);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
            EXPECT_EQ(a->meas, b->meas);
            EXPECT_EQ(a->ref, b->ref);
        }
    }
}

TEST(FrontEndStream, TicksForPcmTracksDecimationPhase) {
    analog::FrontEnd frontend;  // adc_decimation = 5
    EXPECT_EQ(frontend.ticks_for_pcm(0), 0);
    EXPECT_EQ(frontend.ticks_for_pcm(3), 15);
    // Two ticks in (no PCM yet): the next pair needs only three more.
    (void)frontend.step_ds_bit(true);
    (void)frontend.step_ds_bit(false);
    EXPECT_EQ(frontend.ticks_for_pcm(1), 3);
    EXPECT_EQ(frontend.ticks_for_pcm(2), 8);
    // A block of exactly ticks_for_pcm(n) ticks fires exactly n pairs.
    analog::SampleBlock block;
    const std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(frontend.ticks_for_pcm(4)), 1);
    EXPECT_EQ(frontend.run_block_ds(bits, block), 4u);
}

TEST(FrontEndStream, RunBlockAppendsWithoutShrinking) {
    analog::FrontEnd frontend(make_config(0.0), 1);
    analog::SampleBlock block;
    block.reserve_pcm(1024);
    const std::vector<std::uint8_t> bits(25, 1);
    EXPECT_EQ(frontend.run_block_ds(bits, block), 5u);
    EXPECT_EQ(frontend.run_block_ds(bits, block), 5u);
    EXPECT_EQ(block.pcm_size(), 10u);
    EXPECT_GE(block.meas.capacity(), 1024u);
    block.clear_pcm();
    EXPECT_EQ(block.pcm_size(), 0u);
    EXPECT_GE(block.meas.capacity(), 1024u);
}

// ------------------------------------------------------- config validation

TEST(FrontEndConfig, ValidateAcceptsDefaults) {
    EXPECT_NO_THROW(analog::FrontEndConfig{}.validate());
}

TEST(FrontEndConfig, ValidateRejectsDegenerateConfigs) {
    const auto reject = [](auto mutate) {
        analog::FrontEndConfig config;
        mutate(config);
        EXPECT_THROW(config.validate(), ContractViolation);
        // The constructor applies the same gate before any pole math runs.
        EXPECT_THROW(analog::FrontEnd{config}, ContractViolation);
    };
    reject([](analog::FrontEndConfig& c) { c.modulator_hz = 0.0; });
    reject([](analog::FrontEndConfig& c) { c.modulator_hz = -16e6; });
    reject([](analog::FrontEndConfig& c) { c.signal_hz = c.modulator_hz / 2.0; });
    reject([](analog::FrontEndConfig& c) { c.adc_decimation = 1; });
    reject([](analog::FrontEndConfig& c) { c.adc_decimation = 5000; });
    // Past the PCM code table's bound (the per-sample converter would take
    // it, up to 4096).
    reject([](analog::FrontEndConfig& c) {
        c.adc_decimation = analog::FrontEndConfig::kMaxAdcDecimation + 1;
    });
    reject([](analog::FrontEndConfig& c) { c.adc_bits = 2; });
    reject([](analog::FrontEndConfig& c) { c.recon_cutoff_hz = c.modulator_hz; });
    reject([](analog::FrontEndConfig& c) { c.antialias_cutoff_hz = 0.0; });
    reject([](analog::FrontEndConfig& c) { c.tank.noise_rms_v = -1e-3; });
    reject([](analog::FrontEndConfig& c) { c.tank.c_full_pf = c.tank.c_empty_pf; });
    // Non-finite tank values pass a plain sign test; an infinite noise level
    // pins both PCM channels at full scale.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    reject([](analog::FrontEndConfig& c) { c.tank.noise_rms_v = kInf; });
    reject([](analog::FrontEndConfig& c) { c.tank.noise_rms_v = kNaN; });
    reject([](analog::FrontEndConfig& c) { c.tank.tia_gain_v_per_a = kInf; });
    reject([](analog::FrontEndConfig& c) { c.tank.tia_gain_v_per_a = -kInf; });
    reject([](analog::FrontEndConfig& c) { c.tank.tia_gain_v_per_a = 0.0; });
    reject([](analog::FrontEndConfig& c) { c.tank.c_empty_pf = 0.0; });
    reject([](analog::FrontEndConfig& c) { c.tank.c_full_pf = kInf; });
    reject([](analog::FrontEndConfig& c) { c.tank.c_ref_pf = kInf; });
    reject([](analog::FrontEndConfig& c) { c.tank.c_ref_pf = 0.0; });
    reject([](analog::FrontEndConfig& c) { c.tank.r_leak_ohm = kInf; });
    reject([](analog::FrontEndConfig& c) { c.tank.r_leak_ohm = kNaN; });
}

// ------------------------------------------------------------------ system

// Every field that feeds reports, campaigns or downstream decisions, folded
// into one comparable string (exact doubles via hexfloat).
std::string report_fingerprint(const app::CycleReport& r) {
    std::ostringstream os;
    os << std::hexfloat;
    os << r.result.meas.amplitude << ' ' << r.result.meas.phase << ' '
       << r.result.ref.amplitude << ' ' << r.result.ref.phase << ' '
       << r.result.cap.ratio_q12 << ' ' << r.result.cap.cos_q11 << ' '
       << r.result.cap.cap_pf_q4 << ' ' << r.result.level.level_q15 << ' '
       << r.result.level.alarm_high << r.result.level.alarm_low << ' '
       << r.level << ' ' << r.capacitance_pf << ' ' << r.sampling_s << ' '
       << r.processing_s << ' ' << r.reconfig_s << ' ' << r.scrub_s << ' '
       << r.repair_s << ' ' << r.upsets_detected << ' ' << r.columns_repaired
       << ' ' << r.plausibility_rejected << r.fallback << r.fabric_corrupted;
    return os.str();
}

std::vector<std::string> run_fingerprints(app::SystemOptions options,
                                          int stream_block_ticks, int cycles) {
    options.stream_block_ticks = stream_block_ticks;
    app::MeasurementSystem system(options, 11);
    std::vector<std::string> prints;
    prints.reserve(static_cast<std::size_t>(cycles));
    for (int c = 0; c < cycles; ++c) {
        system.set_true_level(0.2 + 0.15 * c);
        prints.push_back(report_fingerprint(system.run_cycle()));
    }
    return prints;
}

// Block size 1 is the baseline: the kernel itself is pinned to the oracle
// above, so the system must only be invariant to its batching.
void expect_system_parity(const app::SystemOptions& options, int cycles) {
    const std::vector<std::string> want = run_fingerprints(options, 1, cycles);
    for (int block_size : kBlockSizes)
        EXPECT_EQ(run_fingerprints(options, block_size, cycles), want)
            << "stream_block_ticks " << block_size;
}

TEST(SystemStream, CycleReportsIdenticalAcrossBlockSizes) {
    expect_system_parity(app::SystemOptions{}, 3);
}

TEST(SystemStream, ExternalDacCycleReportsIdentical) {
    app::SystemOptions options;
    options.use_ds_dac = false;
    expect_system_parity(options, 2);
}

TEST(SystemStream, SoftwareVariantCycleReportsIdentical) {
    app::SystemOptions options;
    options.variant = app::SystemVariant::Software;
    expect_system_parity(options, 2);
}

TEST(SystemStream, FaultArmedCycleReportsIdentical) {
    // Faults draw from their own RNG streams (plan + glitch placement); the
    // streaming path must not perturb any of them.
    app::SystemOptions options;
    options.fault.upset_rate_per_column_s = 0.5;
    options.fault.load_corruption_prob = 0.2;
    options.fault.glitch_prob_per_cycle = 0.5;
    expect_system_parity(options, 4);

    // Fault bookkeeping (not only the per-cycle reports) must agree too.
    const auto stats_for = [&](int block_ticks) {
        app::SystemOptions o = options;
        o.stream_block_ticks = block_ticks;
        app::MeasurementSystem system(o, 11);
        for (int c = 0; c < 4; ++c) {
            system.set_true_level(0.2 + 0.15 * c);
            (void)system.run_cycle();
        }
        const fault::FaultStats& fs = system.fault_stats();
        std::ostringstream os;
        os << fs.upsets_injected << ' ' << fs.upsets_detected << ' '
           << fs.columns_repaired << ' ' << fs.load_retries << ' '
           << fs.load_failures << ' ' << fs.rejected_cycles << ' '
           << fs.fallback_cycles;
        return os.str();
    };
    const std::string want = stats_for(1);
    for (int block_size : kBlockSizes) EXPECT_EQ(stats_for(block_size), want);
}

TEST(SystemStream, SteadyCyclesReplayTheLockedOrbit) {
    // One block per cycle at the default stream_block_ticks: the first
    // cycle starts from reset and runs the generic loop, every later one
    // replays the locked orbit.
    for (const bool ds_dac : {true, false}) {
        obs::Recorder recorder;
        app::SystemOptions options;
        options.use_ds_dac = ds_dac;
        options.recorder = &recorder;
        app::MeasurementSystem system(options, 11);
        for (int c = 0; c < 6; ++c) {
            system.set_true_level(0.1 + 0.15 * c);
            (void)system.run_cycle();
        }
        EXPECT_EQ(recorder.metrics().value("frontend.blocks_total"), 6.0);
        EXPECT_EQ(recorder.metrics().value("frontend.orbit_blocks_total"), 5.0)
            << "ds_dac " << ds_dac;
    }
}

TEST(SystemStream, NonPositiveBlockSizeIsRejected) {
    for (const int block_ticks : {0, -1}) {
        app::SystemOptions options;
        options.stream_block_ticks = block_ticks;
        EXPECT_THROW(app::MeasurementSystem(options, 11), ContractViolation);
        fleet::CampaignOptions campaign;
        campaign.stream_block_ticks = block_ticks;
        EXPECT_THROW(fleet::CampaignRunner{campaign}, ContractViolation);
    }
}

// ---------------------------------------------------------------- campaign

TEST(CampaignStream, ReportJsonByteIdenticalAcrossBlockSizes) {
    const std::vector<fleet::Scenario> scenarios = fleet::SweepBuilder()
                                                       .noise_levels({0.0, 1e-3})
                                                       .upset_rates({0.0, 0.5})
                                                       .cycles(3)
                                                       .build();
    ASSERT_EQ(scenarios.size(), 4u);

    // Blocks of one tick, single-threaded: the baseline bytes.
    fleet::CampaignOptions baseline(1);
    baseline.stream_block_ticks = 1;
    const std::string want = fleet::CampaignReport::from(
                                 fleet::CampaignRunner(baseline).run(scenarios))
                                 .render_json();

    // Campaigns on worker threads (thread_local block reuse in play) must
    // render the very same bytes at every block size.
    for (int block_size : kBlockSizes) {
        fleet::CampaignOptions options(2);
        options.stream_block_ticks = block_size;
        const std::string json = fleet::CampaignReport::from(
                                     fleet::CampaignRunner(options).run(scenarios))
                                     .render_json();
        EXPECT_EQ(json, want) << "stream_block_ticks " << block_size;
    }
}

}  // namespace
}  // namespace refpga
