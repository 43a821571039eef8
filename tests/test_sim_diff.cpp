// Differential harness for the simulation engines (sim/engine.hpp).
//
// The event-driven engine is only allowed to exist because this suite pins
// it bit-for-bit to the reference cycle engine of the test-support library:
// across seeded random netlists (LUT
// soup, FFs with clock enables, feedback registers, counters, ROM and
// writable BRAM, MULT18) and several stimulus shapes, both engines must
// produce identical per-net toggle counts, identical net/BRAM/port state,
// the same changed-net sets, and byte-identical VCD dumps. A failure prints
// the seed, which reproduces deterministically on any platform.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "refpga/app/system.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/event_sim.hpp"
#include "refpga/sim/random_netlist.hpp"
#include "refpga/sim/simulator.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::sim {
namespace {

using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

std::vector<NetId> all_nets(const netlist::Netlist& nl) {
    std::vector<NetId> nets;
    nets.reserve(nl.net_count());
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) nets.push_back(NetId{i});
    return nets;
}

std::vector<std::uint32_t> sorted_changed(const SimEngine& sim) {
    std::vector<std::uint32_t> ids;
    ids.reserve(sim.changed_nets().size());
    for (const NetId n : sim.changed_nets()) ids.push_back(n.value());
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::vector<CellId> writable_brams(const netlist::Netlist& nl) {
    std::vector<CellId> cells;
    for (std::uint32_t i = 0; i < nl.cell_count(); ++i) {
        const CellId id{i};
        const auto& c = nl.cell(id);
        if (c.kind == CellKind::Bram && nl.bram_config(c).writable)
            cells.push_back(id);
    }
    return cells;
}

void expect_equivalent(const netlist::Netlist& nl, const Simulator& ref,
                       const EventSimulator& fast, std::uint64_t seed) {
    ASSERT_EQ(ref.toggle_counts().size(), fast.toggle_counts().size());
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        EXPECT_EQ(ref.toggle_counts()[i], fast.toggle_counts()[i])
            << "toggle mismatch on net '" << nl.name(NetId{i}) << "' (seed "
            << seed << ")";
        EXPECT_EQ(ref.net_value(NetId{i}), fast.net_value(NetId{i}))
            << "value mismatch on net '" << nl.name(NetId{i}) << "' (seed "
            << seed << ")";
    }
    for (const CellId bram : writable_brams(nl)) {
        const auto& cfg = nl.bram_config(nl.cell(bram));
        for (std::size_t a = 0; a < cfg.depth(); ++a)
            EXPECT_EQ(ref.bram_word(bram, a), fast.bram_word(bram, a))
                << "BRAM word mismatch at addr " << a << " (seed " << seed << ")";
    }
}

/// Drives both engines with identical stimulus. `pattern` selects the
/// stimulus shape: 0 = new value every tick, 1 = sparse (every 7th tick),
/// 2 = bursts separated by long idle stretches. Returns the two VCD dumps.
std::pair<std::string, std::string> run_pair(std::uint64_t seed, int pattern,
                                             int cycles,
                                             const RandomNetlistOptions& opts = {}) {
    const netlist::Netlist nl = random_netlist(seed, opts);
    Simulator ref(nl);
    EventSimulator fast(nl);
    const std::vector<CellId> brams = writable_brams(nl);

    std::ostringstream ref_vcd, fast_vcd;
    VcdWriter ref_writer(ref_vcd, ref, all_nets(nl));
    VcdWriter fast_writer(fast_vcd, fast, all_nets(nl));
    ref_writer.sample(1);
    fast_writer.sample(1);

    Rng stim(seed ^ 0xD1FFull);
    const auto stim_mask =
        (std::uint64_t{1} << nl.find_port("stim")->nets.size()) - 1;
    for (int t = 1; t <= cycles; ++t) {
        const bool drive = pattern == 0 || (pattern == 1 && t % 7 == 0) ||
                           (pattern == 2 && (t / 11) % 2 == 0);
        if (drive) {
            const std::uint64_t value = stim.next_u64() & stim_mask;
            ref.set_input("stim", value);
            fast.set_input("stim", value);
            EXPECT_EQ(sorted_changed(ref), sorted_changed(fast))
                << "changed-net set diverged on set_input, seed " << seed;
        }
        if (!brams.empty() && stim.next_below(5) == 0) {
            // External memory pokes must re-arm the event engine's BRAM.
            const CellId bram = brams[stim.next_below(
                static_cast<std::uint32_t>(brams.size()))];
            const auto& cfg = nl.bram_config(nl.cell(bram));
            const auto addr = stim.next_below(static_cast<std::uint32_t>(cfg.depth()));
            const auto word = static_cast<std::uint32_t>(stim.next_u64()) &
                              ((1u << cfg.data_bits) - 1);
            ref.set_bram_word(bram, addr, word);
            fast.set_bram_word(bram, addr, word);
        }
        ref.tick();
        fast.tick();
        EXPECT_EQ(sorted_changed(ref), sorted_changed(fast))
            << "changed-net set diverged on tick " << t << ", seed " << seed;
        ref_writer.sample(1 + std::int64_t{t} * 1000);
        fast_writer.sample(1 + std::int64_t{t} * 1000);
        EXPECT_EQ(ref.get_port("probe"), fast.get_port("probe"))
            << "probe diverged on tick " << t << ", seed " << seed;
    }

    expect_equivalent(nl, ref, fast, seed);
    return {ref_vcd.str(), fast_vcd.str()};
}

// -------------------------------------------------------- randomized parity

/// >= 100 generated netlists x stimulus patterns (34 seeds x 3 patterns).
class EngineParity : public ::testing::TestWithParam<int> {};

TEST_P(EngineParity, TogglesStateAndVcdMatchAcrossRandomNetlists) {
    const int pattern = GetParam();
    for (std::uint64_t seed = 1; seed <= 34; ++seed) {
        const auto [ref_vcd, fast_vcd] = run_pair(seed, pattern, 48);
        EXPECT_EQ(ref_vcd, fast_vcd)
            << "VCD bytes diverged, seed " << seed << " pattern " << pattern;
        if (::testing::Test::HasFailure()) break;  // first seed is enough
    }
}

INSTANTIATE_TEST_SUITE_P(StimulusPatterns, EngineParity, ::testing::Values(0, 1, 2));

TEST(EngineParity, TopologyCornersMatch) {
    // Degenerate generator settings: each stresses one engine code path
    // (pure soup, no feedback; seq-only; BRAM-free; MULT-free).
    RandomNetlistOptions opts;
    opts.with_bram = false;
    for (std::uint64_t seed = 200; seed < 204; ++seed)
        (void)run_pair(seed, 0, 24, opts);

    opts = RandomNetlistOptions{};
    opts.with_mult = false;
    opts.with_feedback = false;
    for (std::uint64_t seed = 300; seed < 304; ++seed) {
        const netlist::Netlist nl = random_netlist(seed, opts);
        Simulator ref(nl);
        EventSimulator fast(nl);
        Rng stim(seed);
        const auto mask =
            (std::uint64_t{1} << nl.find_port("stim")->nets.size()) - 1;
        for (int t = 0; t < 32; ++t) {
            const std::uint64_t v = stim.next_u64() & mask;
            ref.set_input("stim", v);
            fast.set_input("stim", v);
            ref.tick();
            fast.tick();
        }
        expect_equivalent(nl, ref, fast, seed);
    }
}

TEST(EngineParity, FullSystemNetlistUnderSystemActivityStimulus) {
    // The Table-2 design (measurement system plus soft IP) driven the way
    // app::system_activity drives it: the held inputs at 1, then fresh ADC
    // words from Rng(2024) before every tick, for fewer cycles than its 256.
    const app::SystemNetlist sys = app::build_system_netlist({});
    const netlist::Netlist& nl = sys.nl;
    Simulator ref(nl);
    EventSimulator fast(nl);
    for (const char* held : {"tick_16mhz", "adc_valid"}) {
        ASSERT_NE(nl.find_port(held), nullptr) << held;
        ref.set_input(held, 1);
        fast.set_input(held, 1);
    }
    Rng stim(2024);
    for (int t = 1; t <= 48; ++t) {
        for (const char* port : {"adc_meas", "adc_ref"}) {
            ASSERT_NE(nl.find_port(port), nullptr) << port;
            const std::uint64_t word = stim.next_below(4096);
            ref.set_input(port, word);
            fast.set_input(port, word);
        }
        ref.tick();
        fast.tick();
        EXPECT_EQ(sorted_changed(ref), sorted_changed(fast)) << "tick " << t;
    }
    expect_equivalent(nl, ref, fast, 2024);
    const auto& toggles = fast.toggle_counts();
    EXPECT_GT(std::count_if(toggles.begin(), toggles.end(),
                            [](std::int64_t n) { return n > 0; }),
              1000);
}

// ------------------------------------------- settle paths and explicit clocks

/// Both engines in lockstep for schedules run_pair cannot express
/// (explicit clocks, stretches of chosen density). After every tick
/// the toggles, net and BRAM state, changed-net set and VCD bytes so far
/// must equal the reference's; the event engine's recorder tells which
/// settle path each tick took.
class Lockstep {
public:
    explicit Lockstep(const netlist::Netlist& nl, std::uint64_t seed)
        : nl_(nl),
          seed_(seed),
          ref_(nl),
          fast_(nl),
          ref_writer_(ref_vcd_, ref_, all_nets(nl)),
          fast_writer_(fast_vcd_, fast_, all_nets(nl)) {
        fast_.set_recorder(&recorder_);
        ref_writer_.sample(1);
        fast_writer_.sample(1);
    }

    void set_input(const std::string& port, std::uint64_t value) {
        ref_.set_input(port, value);
        fast_.set_input(port, value);
        EXPECT_EQ(sorted_changed(ref_), sorted_changed(fast_))
            << "changed-net set diverged on set_input " << port << ", seed " << seed_;
    }

    void set_bram_word(CellId bram, std::size_t addr, std::uint32_t word) {
        ref_.set_bram_word(bram, addr, word);
        fast_.set_bram_word(bram, addr, word);
    }

    /// Ticks `clock` on both engines and checks them; returns whether the
    /// event engine settled the tick with the level-order sweep.
    bool tick(NetId clock = NetId{}) {
        const double dense_before = dense_ticks();
        ref_.tick(clock);
        fast_.tick(clock);
        ++ticks_;
        EXPECT_EQ(sorted_changed(ref_), sorted_changed(fast_))
            << "changed-net set diverged on tick " << ticks_ << ", seed " << seed_;
        ref_writer_.sample(1 + ticks_ * 1000);
        fast_writer_.sample(1 + ticks_ * 1000);
        EXPECT_EQ(ref_vcd_.str(), fast_vcd_.str())
            << "VCD bytes diverged on tick " << ticks_ << ", seed " << seed_;
        expect_equivalent(nl_, ref_, fast_, seed_);
        return dense_ticks() > dense_before;
    }

    [[nodiscard]] double dense_ticks() const {
        return recorder_.metrics().value("sim.dense_ticks_total");
    }
    [[nodiscard]] const obs::MetricRegistry& metrics() const { return recorder_.metrics(); }

private:
    const netlist::Netlist& nl_;
    std::uint64_t seed_;
    obs::Recorder recorder_;
    Simulator ref_;
    EventSimulator fast_;
    std::ostringstream ref_vcd_, fast_vcd_;
    VcdWriter ref_writer_;
    VcdWriter fast_writer_;
    std::int64_t ticks_ = 0;
};

/// Two clock domains over shared logic: CE'd 8-bit banks on clk_a and
/// clk_b whose next states both read one shared cone of both banks, clk_a's
/// 4-bit counter and a writable 16 x 8 BRAM on clk_a (addressed from clk_b's
/// bank, written with bank A ^ stim). `run` enables the banks, clk_a's
/// counter and the RAM's writes; clk_b's 4-bit counter runs free and reaches
/// only the probe, so run = 0 under a held stim leaves a trickle of
/// activity. Ports: clk_a, clk_b, stim (8), run (1), probe (8).
netlist::Netlist two_clock_netlist() {
    using netlist::Builder;
    using netlist::Bus;
    netlist::Netlist nl;
    const NetId clk_a = nl.add_input_port("clk_a", 1)[0];
    const NetId clk_b = nl.add_input_port("clk_b", 1)[0];
    const Bus stim = nl.add_input_port("stim", 8);
    const NetId run = nl.add_input_port("run", 1)[0];
    Builder a(nl, clk_a);
    Builder b(nl, clk_b);
    const Bus count_a = a.counter(4, run, "count_a");
    const Bus count_b = b.counter(4, NetId{}, "count_b");

    Bus shared;
    (void)a.feedback_reg(
        8,
        [&](const Bus& qa) {
            const Bus qb_out = b.feedback_reg(
                8,
                [&](const Bus& qb) {
                    netlist::BramConfig cfg;
                    cfg.addr_bits = 4;
                    cfg.data_bits = 8;
                    cfg.writable = true;
                    cfg.init.resize(cfg.depth());
                    for (std::size_t i = 0; i < cfg.init.size(); ++i)
                        cfg.init[i] = static_cast<std::uint32_t>(i * 37 + 11) & 0xFF;
                    const Bus ram = nl.add_bram(cfg, Builder::slice(qb, 0, 4), clk_a,
                                                a.and_(run, stim[7]),
                                                a.xor_bus(qa, stim), "ram");
                    const Bus counts = Builder::concat(count_a, Builder::slice(qb, 4, 4));
                    shared = a.add(a.xor_bus(qa, qb), a.xor_bus(ram, counts));
                    return b.add(qb, b.xor_bus(shared, stim));
                },
                run, "bank_b");
            return a.xor_bus(a.add(qa, shared), qb_out);
        },
        run, "bank_a");
    nl.add_output_port("probe",
                       a.xor_bus(shared, a.zero_extend(count_b, 8)));
    return nl;
}

TEST(SettlePaths, TwoClocksAlternateThroughDenseAndSparseStretches) {
    // tick(clk_a) and tick(clk_b) alternate. A dense tick may evaluate only
    // its own clock's sequential cells and must leave the other clock's
    // armed (DESIGN §8); stretches of fresh stimulus with run = 1 and of
    // held stimulus with run = 0 take both settle paths on both clocks.
    const netlist::Netlist nl = two_clock_netlist();
    const NetId clk_a = nl.find_port("clk_a")->nets[0];
    const NetId clk_b = nl.find_port("clk_b")->nets[0];
    const CellId ram = writable_brams(nl).at(0);
    Lockstep sims(nl, 2);
    Rng stim(2);
    int dense[2] = {0, 0};
    int sparse[2] = {0, 0};
    for (int stretch = 0; stretch < 8; ++stretch) {
        const bool busy = stretch % 2 == 0;
        sims.set_input("run", busy ? 1 : 0);
        for (int t = 0; t < 24; ++t) {
            if (busy) sims.set_input("stim", stim.next_below(256));
            if (!busy && t == 11)
                sims.set_bram_word(ram, stim.next_below(16), stim.next_below(256));
            const int which = t % 2;
            if (sims.tick(which == 0 ? clk_a : clk_b))
                ++dense[which];
            else
                ++sparse[which];
            if (::testing::Test::HasFailure()) return;
        }
    }
    for (int which = 0; which < 2; ++which) {
        EXPECT_GT(dense[which], 0) << "clock " << which;
        EXPECT_GT(sparse[which], 0) << "clock " << which;
    }
}

TEST(SettlePaths, BurstsAndIdleStretchesTakeBothPaths) {
    // Bursts of fresh stimulus separated by idle stretches with BRAM pokes,
    // on netlists without free-running counters so that idle really is
    // quiet: each run must go dense -> sparse -> dense at least once.
    RandomNetlistOptions opts;
    opts.luts = 96;
    opts.ffs = 24;
    opts.with_feedback = false;
    for (std::uint64_t seed = 500; seed < 508; ++seed) {
        const netlist::Netlist nl = random_netlist(seed, opts);
        const std::vector<CellId> brams = writable_brams(nl);
        ASSERT_FALSE(brams.empty());
        Lockstep sims(nl, seed);
        Rng stim(seed);
        const auto mask = (std::uint64_t{1} << nl.find_port("stim")->nets.size()) - 1;
        std::string path;  // one letter per tick: D dense, s sparse
        for (int t = 0; t < 120; ++t) {
            const bool burst = t % 40 < 12;
            if (burst) sims.set_input("stim", stim.next_u64() & mask);
            if (!burst && stim.next_below(6) == 0) {
                const CellId bram = brams[stim.next_below(
                    static_cast<std::uint32_t>(brams.size()))];
                const auto& cfg = nl.bram_config(nl.cell(bram));
                sims.set_bram_word(
                    bram, stim.next_below(static_cast<std::uint32_t>(cfg.depth())),
                    static_cast<std::uint32_t>(stim.next_u64()) &
                        ((1u << cfg.data_bits) - 1));
            }
            path += sims.tick() ? 'D' : 's';
            if (::testing::Test::HasFailure()) return;
        }
        const obs::MetricRegistry& m = sims.metrics();
        EXPECT_EQ(m.value("sim.ticks_total"), 120.0);
        EXPECT_GT(m.value("sim.dense_ticks_total"), 0.0) << "seed " << seed;
        EXPECT_LT(m.value("sim.dense_ticks_total"), 120.0) << "seed " << seed;
        EXPECT_NE(path.find('D', path.find('s', path.find('D'))), std::string::npos)
            << "no dense -> sparse -> dense transition, seed " << seed << ": " << path;
    }
}

// -------------------------------------------------- golden activity (§4.3)

/// The Table-2 reference scenario (XC3S200 power fixture): an 8-bit counter
/// run for 256 cycles at 50 MHz. Bit i of a binary counter toggles exactly
/// 2^(8-i) times over a full period — pinned as exact integers for BOTH
/// engines so §4.3 power numbers can never drift without a visible diff.
template <typename Engine>
void check_counter_golden() {
    netlist::Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    const netlist::Bus q = b.counter(8, NetId{}, "q");
    nl.add_output_port("q", q);

    Engine sim(nl);
    sim.run(256);
    for (int bit = 0; bit < 8; ++bit)
        EXPECT_EQ(sim.toggle_counts()[q[static_cast<std::size_t>(bit)].value()],
                  256 >> bit)
            << "counter bit " << bit;

    // Rates at the Table-2 clock: bit 0 toggles every cycle -> 50 MHz.
    const ActivityMap activity = activity_from_simulation(sim, 50e6);
    EXPECT_DOUBLE_EQ(activity.rate_hz(q[0]), 50e6);
    EXPECT_DOUBLE_EQ(activity.rate_hz(q[7]), 50e6 / 128.0);
}

TEST(GoldenActivity, Table2CounterCycleEngine) { check_counter_golden<Simulator>(); }

TEST(GoldenActivity, Table2CounterEventEngine) {
    check_counter_golden<EventSimulator>();
}

TEST(GoldenActivity, Table2CounterEnginesAgreeNetForNet) {
    netlist::Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    nl.add_output_port("q", b.counter(8, NetId{}, "q"));
    Simulator ref(nl);
    EventSimulator fast(nl);
    ref.run(256);
    fast.run(256);
    EXPECT_EQ(ref.toggle_counts(), fast.toggle_counts());
}

}  // namespace
}  // namespace refpga::sim
