// Bit-exactness tests: the hardware netlists must reproduce the golden
// models exactly, sample for sample.
#include <gtest/gtest.h>

#include <cmath>

#include "refpga/app/golden.hpp"
#include "refpga/app/hw_modules.hpp"
#include "refpga/app/tables.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/netlist/drc.hpp"
#include "refpga/netlist/stats.hpp"
#include "refpga/sim/simulator.hpp"

namespace refpga::app {
namespace {

using netlist::Builder;
using netlist::Bus;
using netlist::Netlist;
using netlist::NetId;

AppParams params() { return AppParams{}; }

std::vector<std::int32_t> random_window(const AppParams& p, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::int32_t> w(static_cast<std::size_t>(p.window));
    const std::int32_t max = (1 << (p.sample_bits - 1)) - 1;
    for (auto& s : w)
        s = static_cast<std::int32_t>(rng.next_below(static_cast<std::uint32_t>(2 * max))) -
            max;
    return w;
}

std::vector<std::int32_t> tone_window(const AppParams& p, double amp, double phi) {
    std::vector<std::int32_t> w(static_cast<std::size_t>(p.window));
    for (int n = 0; n < p.window; ++n)
        w[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(
            std::lround(amp * std::sin(2.0 * M_PI * p.bin * n / p.window + phi)));
    return w;
}

// ---------------------------------------------------------------- sinus generator

TEST(HwSinusGen, MatchesModelBitForBit) {
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const auto tick = nl.add_input_port("tick", 1);
    const SinusGeneratorIo io = make_sinus_generator(b, tick[0]);
    nl.add_output_port("code8", io.code8);
    nl.add_output_port("ds_bit", Bus{io.ds_bit});
    ASSERT_TRUE(netlist::run_drc(nl).empty());

    sim::Simulator simulator(nl);
    simulator.set_input("tick", 1);
    // The DAC code is the LUT entry at the 5-bit address counter; the
    // delta-sigma bit is the model's.
    const std::vector<std::uint32_t> lut = sinus_dac_codes();
    SinusGenModel model;
    std::vector<std::uint8_t> bits(500);
    model.run_block_bits(bits.size(), bits.data());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        EXPECT_EQ(simulator.get_port("code8"), lut[i % lut.size()]) << "cycle " << i;
        EXPECT_EQ(simulator.get_port("ds_bit"), unsigned{bits[i]}) << "cycle " << i;
        simulator.tick();
    }
}

TEST(HwSinusGen, ResourceFootprintNearFiftySlices) {
    // §4.1: "total resource utilization was restricted to ca. 50 slices".
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const auto tick = nl.add_input_port("tick", 1);
    (void)make_sinus_generator(b, tick[0]);
    // Measured ~85 slices vs the paper's "ca. 50": our modulator carries
    // wider state registers; same order of magnitude (see EXPERIMENTS.md).
    const auto stats = netlist::total_stats(nl);
    EXPECT_GE(stats.slices(), 25u);
    EXPECT_LE(stats.slices(), 95u);
}

// ---------------------------------------------------------------- amp/phase

struct AmpPhaseHarness {
    Netlist nl;
    sim::Simulator* simulator = nullptr;

    AmpPhaseHarness() {
        const AppParams p = params();
        const NetId clk = nl.add_input_port("clk", 1)[0];
        Builder b(nl, clk);
        const Bus meas = nl.add_input_port("meas", p.sample_bits);
        const Bus ref = nl.add_input_port("ref", p.sample_bits);
        const Bus valid = nl.add_input_port("valid", 1);
        const Bus clear = nl.add_input_port("clear", 1);
        const Bus chan = nl.add_input_port("chan", 1);
        const AmpPhaseIo io =
            make_amp_phase(b, meas, ref, valid[0], clear[0], chan[0], params());
        nl.add_output_port("amp", io.amp);
        nl.add_output_port("phase", io.phase);
        nl.add_output_port("done", Bus{io.done});
    }

    struct Result {
        golden::ChannelResult meas;
        golden::ChannelResult ref;
    };

    Result run(const std::vector<std::int32_t>& meas,
               const std::vector<std::int32_t>& ref) {
        sim::Simulator s(nl);
        // Clear pulse with quiet inputs.
        s.set_input("meas", 0);
        s.set_input("ref", 0);
        s.set_input("valid", 0);
        s.set_input("clear", 1);
        s.tick();
        s.set_input("clear", 0);
        s.set_input("valid", 1);
        for (std::size_t i = 0; i < meas.size(); ++i) {
            s.set_input("meas", static_cast<std::uint64_t>(meas[i]) & 0xFFF);
            s.set_input("ref", static_cast<std::uint64_t>(ref[i]) & 0xFFF);
            s.tick();
        }
        s.set_input("valid", 0);
        EXPECT_EQ(s.get_port("done"), 1u);
        Result r;
        s.set_input("chan", 0);
        r.meas.amplitude = static_cast<std::uint32_t>(s.get_port("amp"));
        r.meas.phase = static_cast<std::uint32_t>(s.get_port("phase"));
        s.set_input("chan", 1);
        r.ref.amplitude = static_cast<std::uint32_t>(s.get_port("amp"));
        r.ref.phase = static_cast<std::uint32_t>(s.get_port("phase"));
        return r;
    }
};

TEST(HwAmpPhase, BitExactOnTone) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const auto meas = tone_window(p, 1500.0, 0.4);
    const auto ref = tone_window(p, 900.0, -0.2);
    AmpPhaseHarness harness;
    const auto hw = harness.run(meas, ref);

    const auto acc = golden::accumulate_window(meas, ref, p, tables);
    const auto gm = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables);
    const auto gr = golden::amp_phase(acc.i_ref, acc.q_ref, p, tables);
    EXPECT_EQ(hw.meas.amplitude, gm.amplitude);
    EXPECT_EQ(hw.meas.phase, gm.phase);
    EXPECT_EQ(hw.ref.amplitude, gr.amplitude);
    EXPECT_EQ(hw.ref.phase, gr.phase);
}

class AmpPhaseRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AmpPhaseRandom, BitExactOnRandomWindows) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const auto meas = random_window(p, GetParam());
    const auto ref = random_window(p, GetParam() + 1000);
    AmpPhaseHarness harness;
    const auto hw = harness.run(meas, ref);
    const auto acc = golden::accumulate_window(meas, ref, p, tables);
    const auto gm = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables);
    const auto gr = golden::amp_phase(acc.i_ref, acc.q_ref, p, tables);
    EXPECT_EQ(hw.meas.amplitude, gm.amplitude);
    EXPECT_EQ(hw.meas.phase, gm.phase);
    EXPECT_EQ(hw.ref.amplitude, gr.amplitude);
    EXPECT_EQ(hw.ref.phase, gr.phase);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmpPhaseRandom, ::testing::Values(1, 2, 3, 4, 5));

TEST(HwAmpPhase, ClearRestartsWindow) {
    const AppParams p = params();
    const golden::Tables tables(p);
    const auto w1 = random_window(p, 77);
    const auto w2 = random_window(p, 88);
    AmpPhaseHarness harness;
    // Run one window, then clear and run another: second result must match a
    // fresh golden run of the second window only.
    sim::Simulator s(harness.nl);
    auto feed = [&](const std::vector<std::int32_t>& m) {
        s.set_input("meas", 0);
        s.set_input("ref", 0);
        s.set_input("valid", 0);
        s.set_input("clear", 1);
        s.tick();
        s.set_input("clear", 0);
        s.set_input("valid", 1);
        for (const auto v : m) {
            s.set_input("meas", static_cast<std::uint64_t>(v) & 0xFFF);
            s.set_input("ref", static_cast<std::uint64_t>(v) & 0xFFF);
            s.tick();
        }
        s.set_input("valid", 0);
    };
    feed(w1);
    feed(w2);
    s.set_input("chan", 0);
    const auto acc = golden::accumulate_window(w2, w2, p, tables);
    const auto gm = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables);
    EXPECT_EQ(s.get_port("amp"), gm.amplitude);
    EXPECT_EQ(s.get_port("phase"), gm.phase);
}

TEST(HwAmpPhase, IsTheLargestModule) {
    // Table 1's shape: amp/phase dominates the reconfigurable modules.
    const AppParams p = params();
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const Bus meas = nl.add_input_port("meas", p.sample_bits);
    const Bus ref = nl.add_input_port("ref", p.sample_bits);
    const Bus flags = nl.add_input_port("flags", 3);

    const auto amp_part = nl.add_partition("amp");
    nl.set_current_partition(amp_part);
    const AmpPhaseIo amp = make_amp_phase(b, meas, ref, flags[0], flags[1], flags[2], p);
    const auto cap_part = nl.add_partition("cap");
    nl.set_current_partition(cap_part);
    const CapacityIo cap = make_capacity(b, amp.amp, amp.phase, amp.amp, amp.phase, p);
    const auto filt_part = nl.add_partition("filt");
    nl.set_current_partition(filt_part);
    (void)make_filter(b, cap.cap_pf_q4, flags[0], p);

    const auto stats = netlist::partition_stats(nl);
    const auto amp_slices = stats[amp_part.value()].slices();
    EXPECT_GT(amp_slices, stats[cap_part.value()].slices());
    EXPECT_GT(stats[cap_part.value()].slices(), stats[filt_part.value()].slices());
}

// ---------------------------------------------------------------- capacity

struct CapacityHarness {
    Netlist nl;

    CapacityHarness() {
        const AppParams p = params();
        const NetId clk = nl.add_input_port("clk", 1)[0];
        Builder b(nl, clk);
        const Bus amp_m = nl.add_input_port("amp_m", 16);
        const Bus ph_m = nl.add_input_port("ph_m", p.angle_bits);
        const Bus amp_r = nl.add_input_port("amp_r", 16);
        const Bus ph_r = nl.add_input_port("ph_r", p.angle_bits);
        const CapacityIo io = make_capacity(b, amp_m, ph_m, amp_r, ph_r, p);
        nl.add_output_port("ratio", io.ratio_q12);
        nl.add_output_port("cap", io.cap_pf_q4);
    }

    golden::CapacityResult run(const golden::ChannelResult& m,
                               const golden::ChannelResult& r) {
        sim::Simulator s(nl);
        s.set_input("amp_m", m.amplitude);
        s.set_input("ph_m", m.phase);
        s.set_input("amp_r", r.amplitude);
        s.set_input("ph_r", r.phase);
        golden::CapacityResult out;
        out.ratio_q12 = static_cast<std::uint32_t>(s.get_port("ratio"));
        out.cap_pf_q4 = static_cast<std::uint32_t>(s.get_port("cap"));
        return out;
    }
};

class CapacityRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CapacityRandom, BitExactAgainstGolden) {
    const AppParams p = params();
    const golden::Tables tables(p);
    Rng rng(GetParam());
    CapacityHarness harness;
    for (int i = 0; i < 12; ++i) {
        golden::ChannelResult m{rng.next_below(40000), rng.next_below(65536)};
        golden::ChannelResult r{1 + rng.next_below(40000), rng.next_below(65536)};
        const auto hw = harness.run(m, r);
        const auto gold = golden::capacity(m, r, p, tables);
        EXPECT_EQ(hw.ratio_q12, gold.ratio_q12) << "case " << i;
        EXPECT_EQ(hw.cap_pf_q4, gold.cap_pf_q4) << "case " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapacityRandom, ::testing::Values(11, 22, 33));

TEST(HwCapacity, ZeroDivisorSaturatesLikeGolden) {
    const AppParams p = params();
    const golden::Tables tables(p);
    CapacityHarness harness;
    golden::ChannelResult m{5000, 0};
    golden::ChannelResult r{0, 0};
    const auto hw = harness.run(m, r);
    const auto gold = golden::capacity(m, r, p, tables);
    EXPECT_EQ(hw.ratio_q12, gold.ratio_q12);
    EXPECT_EQ(hw.ratio_q12, 16383u);
}

// ---------------------------------------------------------------- filter

TEST(HwFilter, BitExactStreamAgainstGolden) {
    const AppParams p = params();
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const Bus cap = nl.add_input_port("cap", 16);
    const Bus valid = nl.add_input_port("valid", 1);
    const FilterIo io = make_filter(b, cap, valid[0], p);
    nl.add_output_port("level", io.level_q15);
    nl.add_output_port("ah", Bus{io.alarm_high});
    nl.add_output_port("al", Bus{io.alarm_low});
    nl.add_output_port("ema", io.ema);

    sim::Simulator s(nl);
    s.set_input("valid", 1);
    golden::FilterState gold(p);
    Rng rng(321);
    for (int i = 0; i < 300; ++i) {
        const std::uint32_t sample = rng.next_below(10000);
        s.set_input("cap", sample);
        s.tick();
        const auto expected = gold.step(sample);
        // Hardware output is combinational after the state registers update.
        EXPECT_EQ(s.get_port("ema"), gold.ema()) << "step " << i;
        EXPECT_EQ(s.get_port("level"), expected.level_q15) << "step " << i;
        EXPECT_EQ(s.get_port("ah"), expected.alarm_high ? 1u : 0u) << "step " << i;
        EXPECT_EQ(s.get_port("al"), expected.alarm_low ? 1u : 0u) << "step " << i;
    }
}

// ---------------------------------------------------------------- hygiene

TEST(HwModules, AllModulesPassDrc) {
    const AppParams p = params();
    Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    Builder b(nl, clk);
    const Bus meas = nl.add_input_port("meas", p.sample_bits);
    const Bus ref = nl.add_input_port("ref", p.sample_bits);
    const Bus flags = nl.add_input_port("flags", 3);
    const Bus tick = nl.add_input_port("tick", 1);
    (void)make_sinus_generator(b, tick[0]);
    const AmpPhaseIo amp = make_amp_phase(b, meas, ref, flags[0], flags[1], flags[2], p);
    const CapacityIo cap = make_capacity(b, amp.amp, amp.phase, amp.amp, amp.phase, p);
    const FilterIo filt = make_filter(b, cap.cap_pf_q4, flags[0], p);
    nl.add_output_port("level", filt.level_q15);
    const auto issues = netlist::run_drc(nl);
    EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues[0].detail);
}

}  // namespace
}  // namespace refpga::app
