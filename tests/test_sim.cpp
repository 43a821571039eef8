#include <gtest/gtest.h>

#include <sstream>

#include "refpga/common/rng.hpp"

#include "refpga/netlist/builder.hpp"
#include "refpga/sim/activity.hpp"
#include "refpga/sim/event_sim.hpp"
#include "refpga/sim/simulator.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::sim {
namespace {

using netlist::Builder;
using netlist::Bus;
using netlist::Netlist;
using netlist::NetId;

struct Design {
    Netlist nl;
    NetId clk;
};

Design make_design() {
    Design d;
    d.clk = d.nl.add_input_port("clk", 1)[0];
    return d;
}

// ---------------------------------------------------------------- combinational

TEST(Simulator, EvaluatesLutTruthTable) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 2);
    d.nl.add_output_port("o", Bus{b.and_(a[0], a[1])});
    Simulator sim(d.nl);
    for (std::uint64_t v = 0; v < 4; ++v) {
        sim.set_input("a", v);
        EXPECT_EQ(sim.get_port("o"), v == 3 ? 1u : 0u) << v;
    }
}

TEST(Simulator, AdderMatchesArithmetic) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 8);
    const Bus x = d.nl.add_input_port("x", 8);
    d.nl.add_output_port("sum", b.add(a, x, true));
    Simulator sim(d.nl);
    for (const auto& [av, xv] :
         std::initializer_list<std::pair<unsigned, unsigned>>{
             {3u, 5u}, {200u, 100u}, {255u, 255u}, {0u, 0u}}) {
        sim.set_input("a", av);
        sim.set_input("x", xv);
        EXPECT_EQ(sim.get_port("sum"), (av + xv) & 0x1FFu);
    }
}

TEST(Simulator, SubMatchesTwosComplement) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 8);
    const Bus x = d.nl.add_input_port("x", 8);
    d.nl.add_output_port("diff", b.sub(a, x));
    Simulator sim(d.nl);
    sim.set_input("a", 10);
    sim.set_input("x", 3);
    EXPECT_EQ(sim.get_port("diff"), 7u);
    sim.set_input("x", 20);
    EXPECT_EQ(sim.get_port("diff"), (10u - 20u) & 0xFFu);
}

TEST(Simulator, AddSubSelectable) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 6);
    const Bus x = d.nl.add_input_port("x", 6);
    const Bus sel = d.nl.add_input_port("sel", 1);
    d.nl.add_output_port("y", b.addsub(a, x, sel[0]));
    Simulator sim(d.nl);
    sim.set_input("a", 20);
    sim.set_input("x", 7);
    sim.set_input("sel", 0);
    EXPECT_EQ(sim.get_port("y"), 27u);
    sim.set_input("sel", 1);
    EXPECT_EQ(sim.get_port("y"), 13u);
}

TEST(Simulator, ComparatorsBehave) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 4);
    const Bus x = d.nl.add_input_port("x", 4);
    d.nl.add_output_port("eq", Bus{b.eq(a, x)});
    d.nl.add_output_port("ltu", Bus{b.lt_unsigned(a, x)});
    d.nl.add_output_port("lts", Bus{b.lt_signed(a, x)});
    Simulator sim(d.nl);
    auto check = [&](std::uint64_t av, std::uint64_t xv, bool eq, bool ltu, bool lts) {
        sim.set_input("a", av);
        sim.set_input("x", xv);
        EXPECT_EQ(sim.get_port("eq"), eq ? 1u : 0u) << av << " vs " << xv;
        EXPECT_EQ(sim.get_port("ltu"), ltu ? 1u : 0u) << av << " vs " << xv;
        EXPECT_EQ(sim.get_port("lts"), lts ? 1u : 0u) << av << " vs " << xv;
    };
    check(3, 3, true, false, false);
    check(2, 9, false, true, false);   // 9 is -7 signed: 2 < -7 is false
    check(15, 1, false, false, true);  // -1 < 1 signed
    check(8, 7, false, false, true);   // -8 < 7 signed
}

TEST(Simulator, Mult18SignedProduct) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 8);
    const Bus x = d.nl.add_input_port("x", 8);
    d.nl.add_output_port("p", b.mul_mult18(a, x, 16, 0));
    Simulator sim(d.nl);
    auto run = [&](std::int32_t av, std::int32_t xv) {
        sim.set_input("a", static_cast<std::uint64_t>(av) & 0xFF);
        sim.set_input("x", static_cast<std::uint64_t>(xv) & 0xFF);
        return static_cast<std::int16_t>(sim.get_port("p"));
    };
    EXPECT_EQ(run(7, 9), 63);
    EXPECT_EQ(run(-5, 11), -55);
    EXPECT_EQ(run(-12, -12), 144);
}

TEST(Simulator, RomLutContents) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus addr = d.nl.add_input_port("addr", 6);
    std::vector<std::uint32_t> contents(64);
    for (std::uint32_t i = 0; i < 64; ++i) contents[i] = (i * 37u + 11u) & 0xFFu;
    d.nl.add_output_port("data", b.rom_lut(addr, contents, 8));
    Simulator sim(d.nl);
    for (std::uint32_t i = 0; i < 64; ++i) {
        sim.set_input("addr", i);
        EXPECT_EQ(sim.get_port("data"), contents[i]) << i;
    }
}

// ---------------------------------------------------------------- sequential

TEST(Simulator, CounterCounts) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    d.nl.add_output_port("q", b.counter(8));
    Simulator sim(d.nl);
    EXPECT_EQ(sim.get_port("q"), 0u);
    sim.run(5);
    EXPECT_EQ(sim.get_port("q"), 5u);
    sim.run(251);
    EXPECT_EQ(sim.get_port("q"), 0u);  // wraps at 256
}

TEST(Simulator, ClockEnableGatesCounter) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus ce = d.nl.add_input_port("ce", 1);
    d.nl.add_output_port("q", b.counter(4, ce[0]));
    Simulator sim(d.nl);
    sim.set_input("ce", 0);
    sim.run(10);
    EXPECT_EQ(sim.get_port("q"), 0u);
    sim.set_input("ce", 1);
    sim.run(3);
    EXPECT_EQ(sim.get_port("q"), 3u);
}

TEST(Simulator, RegisterDelaysOneCycle) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", 4);
    d.nl.add_output_port("q", b.reg(a));
    Simulator sim(d.nl);
    sim.set_input("a", 9);
    EXPECT_EQ(sim.get_port("q"), 0u);
    sim.tick();
    EXPECT_EQ(sim.get_port("q"), 9u);
}

TEST(Simulator, BramRomSynchronousRead) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus addr = d.nl.add_input_port("addr", 5);
    std::vector<std::uint32_t> contents;
    for (std::uint32_t i = 0; i < 32; ++i) contents.push_back(i * 3);
    d.nl.add_output_port("data", b.rom_bram(addr, contents, 8));
    Simulator sim(d.nl);
    sim.set_input("addr", 7);
    sim.tick();
    EXPECT_EQ(sim.get_port("data"), 21u);
    sim.set_input("addr", 31);
    EXPECT_EQ(sim.get_port("data"), 21u);  // not yet clocked
    sim.tick();
    EXPECT_EQ(sim.get_port("data"), 93u);
}

TEST(Simulator, BramWritePort) {
    Design d = make_design();
    const NetId clk = d.clk;
    const auto addr = d.nl.add_input_port("addr", 4);
    const auto we = d.nl.add_input_port("we", 1);
    const auto wdata = d.nl.add_input_port("wdata", 8);
    netlist::BramConfig cfg;
    cfg.addr_bits = 4;
    cfg.data_bits = 8;
    cfg.writable = true;
    const auto out = d.nl.add_bram(cfg, addr, clk, we[0], wdata, "ram");
    d.nl.add_output_port("data", out);
    Simulator sim(d.nl);
    sim.set_input("addr", 5);
    sim.set_input("we", 1);
    sim.set_input("wdata", 0xAB);
    sim.tick();  // write-first: read sees the new value
    EXPECT_EQ(sim.get_port("data"), 0xABu);
    sim.set_input("we", 0);
    sim.tick();
    EXPECT_EQ(sim.get_port("data"), 0xABu);
}

// ---------------------------------------------------------------- activity/VCD

TEST(Activity, ToggleRateFromSimulation) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(4);
    d.nl.add_output_port("q", q);
    Simulator sim(d.nl);
    sim.run(64);
    const ActivityMap map = activity_from_simulation(sim, 1e6);  // 1 MHz clock
    // Counter bit 0 toggles every cycle: rate == clock rate.
    EXPECT_NEAR(map.rate_hz(q[0]), 1e6, 1e4);
    // Bit 3 toggles every 8 cycles.
    EXPECT_NEAR(map.rate_hz(q[3]), 1e6 / 8.0, 2e4);
}

TEST(Activity, BusiestOrdersByRate) {
    ActivityMap map(3);
    map.set_rate(NetId{0}, 10.0);
    map.set_rate(NetId{1}, 30.0);
    map.set_rate(NetId{2}, 20.0);
    const auto top = map.busiest(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], NetId{1});
    EXPECT_EQ(top[1], NetId{2});

    // Forced ties: equal rates rank by ascending net id, so a cut through a
    // tied group keeps the same nets on every standard library.
    ActivityMap tied(64);
    for (std::uint32_t i = 0; i < 64; ++i)
        tied.set_rate(NetId{i}, i % 3 == 0 ? 5.0 : (i == 40 ? 9.0 : 1.0));
    const auto ranked = tied.busiest(12);
    ASSERT_EQ(ranked.size(), 12u);
    EXPECT_EQ(ranked[0], NetId{40});
    for (std::uint32_t k = 1; k < 12; ++k)
        EXPECT_EQ(ranked[k], NetId{3 * (k - 1)}) << "rank " << k;
}

TEST(Vcd, WriteParseRoundTrip) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(2);
    d.nl.add_output_port("q", q);
    Simulator sim(d.nl);

    std::ostringstream os;
    VcdWriter writer(os, sim, {q[0], q[1]});
    writer.sample(0);
    for (int t = 1; t <= 8; ++t) {
        sim.tick();
        writer.sample(t * 1000);
    }

    std::istringstream is(os.str());
    const VcdActivity activity = parse_vcd(is);
    EXPECT_EQ(activity.duration_ps, 8000);
    // q0 toggles every cycle: 8 transitions over 8 samples.
    const std::string q0_name(d.nl.name(q[0]));
    const std::string q1_name(d.nl.name(q[1]));
    EXPECT_EQ(activity.toggles.at(q0_name), 8);
    EXPECT_EQ(activity.toggles.at(q1_name), 4);
}

TEST(Vcd, ActivityFromVcdMatchesDirect) {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus q = b.counter(3);
    d.nl.add_output_port("q", q);
    Simulator sim(d.nl);

    std::vector<NetId> watched = {q[0], q[1], q[2]};
    std::ostringstream os;
    VcdWriter writer(os, sim, watched);
    const double clock_hz = 50e6;
    const double period_ps = 1e12 / clock_hz;
    writer.sample(1);
    for (int t = 1; t <= 100; ++t) {
        sim.tick();
        writer.sample(static_cast<std::int64_t>(t * period_ps));
    }
    std::istringstream is(os.str());
    const ActivityMap from_vcd = activity_from_vcd(d.nl, parse_vcd(is));
    const ActivityMap direct = activity_from_simulation(sim, clock_hz);
    for (const NetId n : watched)
        EXPECT_NEAR(from_vcd.rate_hz(n), direct.rate_hz(n), direct.rate_hz(n) * 0.05);
}

// ------------------------------------------------- malformed VCD input

namespace {

constexpr const char* kVcdHeader =
    "$timescale 1ps $end\n"
    "$scope module top $end\n"
    "$var wire 1 ! q0 $end\n"
    "$upscope $end\n"
    "$enddefinitions $end\n";

VcdActivity parse_string(const std::string& text) {
    std::istringstream is(text);
    return parse_vcd(is);
}

}  // namespace

TEST(VcdRobustness, TruncatedVarDeclarationThrows) {
    EXPECT_THROW((void)parse_string("$timescale 1ps $end\n$var wire 1 !"),
                 VcdParseError);
}

TEST(VcdRobustness, VarNotClosedByEndThrows) {
    EXPECT_THROW((void)parse_string("$var wire 1 ! q0 $oops\n#0\n1!\n"),
                 VcdParseError);
}

TEST(VcdRobustness, UnterminatedDirectiveThrows) {
    EXPECT_THROW((void)parse_string("$scope module top"), VcdParseError);
}

TEST(VcdRobustness, UnknownIdentifierCodeThrows) {
    EXPECT_THROW((void)parse_string(std::string(kVcdHeader) + "#0\n1\"\n"),
                 VcdParseError);
}

TEST(VcdRobustness, NonIncreasingTimestampsThrow) {
    EXPECT_THROW(
        (void)parse_string(std::string(kVcdHeader) + "#0\n1!\n#5\n0!\n#5\n1!\n"),
        VcdParseError);
    EXPECT_THROW(
        (void)parse_string(std::string(kVcdHeader) + "#10\n1!\n#3\n0!\n"),
        VcdParseError);
}

TEST(VcdRobustness, MalformedTimestampThrows) {
    EXPECT_THROW((void)parse_string(std::string(kVcdHeader) + "#\n1!\n"),
                 VcdParseError);
    EXPECT_THROW((void)parse_string(std::string(kVcdHeader) + "#12ps\n1!\n"),
                 VcdParseError);
}

TEST(VcdRobustness, ValueChangeBeforeFirstTimestampThrows) {
    EXPECT_THROW((void)parse_string(std::string(kVcdHeader) + "1!\n#0\n"),
                 VcdParseError);
}

TEST(VcdRobustness, DeclarationsWithoutValueChangeSectionThrow) {
    EXPECT_THROW((void)parse_string(kVcdHeader), VcdParseError);
}

TEST(VcdRobustness, EmptyStreamYieldsEmptyActivity) {
    // No declarations at all is not an error — just nothing to report.
    const VcdActivity activity = parse_string("");
    EXPECT_EQ(activity.duration_ps, 0);
    EXPECT_TRUE(activity.toggles.empty());
}

TEST(VcdRobustness, UnrecognizedTokenThrows) {
    EXPECT_THROW((void)parse_string(std::string(kVcdHeader) + "#0\nhello\n"),
                 VcdParseError);
}

TEST(VcdRobustness, VectorChangesAreSkippedButValidated) {
    // A declared identifier's vector change parses (and contributes no
    // scalar toggles); an undeclared or truncated one throws.
    const VcdActivity ok = parse_string(std::string(kVcdHeader) +
                                        "#0\nb1010 !\n1!\n#5\n0!\n");
    EXPECT_EQ(ok.toggles.at("q0"), 1);
    EXPECT_THROW(
        (void)parse_string(std::string(kVcdHeader) + "#0\nb1010 \"\n"),
        VcdParseError);
    EXPECT_THROW((void)parse_string(std::string(kVcdHeader) + "#0\nb1010"),
                 VcdParseError);
}

TEST(VcdRobustness, UnknownStateResetsToggleTracking) {
    // 1 -> x -> 1 is not a toggle; 1 -> x -> 0 is not either (the resume
    // value seeds tracking afresh, matching first-dump semantics).
    const VcdActivity activity = parse_string(
        std::string(kVcdHeader) + "#0\n1!\n#5\nx!\n#10\n1!\n#15\n0!\n");
    EXPECT_EQ(activity.toggles.at("q0"), 1);
}

// ------------------------------------------------- randomized properties

/// One fixture netlist with every arithmetic operator at a given width,
/// exercised against C++ reference arithmetic over random vectors.
class ArithmeticProperty : public ::testing::TestWithParam<int> {};

TEST_P(ArithmeticProperty, MatchesReferenceOverRandomVectors) {
    const int width = GetParam();
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", width);
    const Bus x = d.nl.add_input_port("x", width);
    const Bus sel = d.nl.add_input_port("sel", 1);
    d.nl.add_output_port("add", b.add(a, x));
    d.nl.add_output_port("sub", b.sub(a, x));
    d.nl.add_output_port("addsub", b.addsub(a, x, sel[0]));
    d.nl.add_output_port("neg", b.negate(a));
    d.nl.add_output_port("inc", b.increment(a));
    d.nl.add_output_port("and", b.and_bus(a, x));
    d.nl.add_output_port("or", b.or_bus(a, x));
    d.nl.add_output_port("xor", b.xor_bus(a, x));
    d.nl.add_output_port("eq", Bus{b.eq(a, x)});
    d.nl.add_output_port("ltu", Bus{b.lt_unsigned(a, x)});

    Simulator sim(d.nl);
    Rng rng(static_cast<std::uint64_t>(width) * 1234567);
    const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
    for (int trial = 0; trial < 64; ++trial) {
        const std::uint64_t av = rng.next_u64() & mask;
        const std::uint64_t xv = rng.next_u64() & mask;
        const std::uint64_t sv = rng.next_u64() & 1;
        sim.set_input("a", av);
        sim.set_input("x", xv);
        sim.set_input("sel", sv);
        EXPECT_EQ(sim.get_port("add"), (av + xv) & mask);
        EXPECT_EQ(sim.get_port("sub"), (av - xv) & mask);
        EXPECT_EQ(sim.get_port("addsub"),
                  (sv != 0 ? av - xv : av + xv) & mask);
        EXPECT_EQ(sim.get_port("neg"), (~av + 1) & mask);
        EXPECT_EQ(sim.get_port("inc"), (av + 1) & mask);
        EXPECT_EQ(sim.get_port("and"), av & xv);
        EXPECT_EQ(sim.get_port("or"), av | xv);
        EXPECT_EQ(sim.get_port("xor"), av ^ xv);
        EXPECT_EQ(sim.get_port("eq"), av == xv ? 1u : 0u);
        EXPECT_EQ(sim.get_port("ltu"), av < xv ? 1u : 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, ArithmeticProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 24, 31));

class MultProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MultProperty, SignedProductMatchesReference) {
    const auto [wa, wb] = GetParam();
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const Bus a = d.nl.add_input_port("a", wa);
    const Bus x = d.nl.add_input_port("x", wb);
    d.nl.add_output_port("p", b.mul_mult18(a, x, wa + wb, 0));
    Simulator sim(d.nl);
    Rng rng(77);
    auto sext = [](std::uint64_t v, int bits) {
        const std::int64_t sign = std::int64_t{1} << (bits - 1);
        return (static_cast<std::int64_t>(v) ^ sign) - sign;
    };
    for (int trial = 0; trial < 64; ++trial) {
        const std::uint64_t av = rng.next_u64() & ((1ULL << wa) - 1);
        const std::uint64_t xv = rng.next_u64() & ((1ULL << wb) - 1);
        sim.set_input("a", av);
        sim.set_input("x", xv);
        const std::int64_t expected = sext(av, wa) * sext(xv, wb);
        const std::uint64_t mask = (1ULL << (wa + wb)) - 1;
        EXPECT_EQ(sim.get_port("p"),
                  static_cast<std::uint64_t>(expected) & mask)
            << av << " * " << xv;
    }
}

INSTANTIATE_TEST_SUITE_P(WidthPairs, MultProperty,
                         ::testing::Values(std::pair{4, 4}, std::pair{12, 10},
                                           std::pair{18, 18}, std::pair{18, 8},
                                           std::pair{7, 15}));

TEST(Simulator, RejectsDirtyNetlist) {
    Netlist nl;
    const NetId floating = nl.add_net("floating");
    (void)nl.add_lut(0x1, std::vector<NetId>{floating}, "inv");
    EXPECT_THROW(Simulator sim(nl), ContractViolation);
}

// ------------------------------------------------- toggle accounting spec
// (engine.hpp contract: power-up settle is free; constants and undriven
// nets never toggle. Checked against both engines.)

template <typename Engine>
void check_power_up_settle_is_free() {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    // An odd inverter chain from ground settles half its nets to 1 during
    // construction; none of those transitions may show up as activity.
    NetId n = d.nl.add_gnd();
    for (int i = 0; i < 5; ++i) n = b.not_(n);
    d.nl.add_output_port("o", Bus{n});
    d.nl.add_output_port("q", b.counter(3));
    Engine sim(d.nl);
    EXPECT_EQ(sim.get_port("o"), 1u);  // the chain did settle...
    for (const std::int64_t t : sim.toggle_counts()) EXPECT_EQ(t, 0);  // ...for free
    EXPECT_TRUE(sim.changed_nets().empty());
}

TEST(ToggleSpec, PowerUpSettleIsFreeCycleEngine) {
    check_power_up_settle_is_free<Simulator>();
}

TEST(ToggleSpec, PowerUpSettleIsFreeEventEngine) {
    check_power_up_settle_is_free<EventSimulator>();
}

template <typename Engine>
void check_constants_and_undriven_never_toggle() {
    Design d = make_design();
    Builder b(d.nl, d.clk);
    const NetId one = d.nl.add_vcc();
    const NetId zero = d.nl.add_gnd();
    const NetId dangling = d.nl.add_net("dangling");  // no driver, no sinks
    const Bus q = b.counter(4, one);  // CE tied high: counts every cycle
    d.nl.add_output_port("q", b.and_bus(q, b.xor_bus(q, b.constant(0x5, 4))));
    Engine sim(d.nl);
    sim.run(32);
    EXPECT_EQ(sim.toggle_counts()[one.value()], 0);
    EXPECT_EQ(sim.toggle_counts()[zero.value()], 0);
    EXPECT_EQ(sim.toggle_counts()[dangling.value()], 0);
    EXPECT_TRUE(sim.net_value(one));
    EXPECT_FALSE(sim.net_value(zero));
    // Real activity is still counted: counter bit 0 toggles every cycle.
    EXPECT_EQ(sim.toggle_counts()[q[0].value()], 32);
}

TEST(ToggleSpec, ConstantsNeverToggleCycleEngine) {
    check_constants_and_undriven_never_toggle<Simulator>();
}

TEST(ToggleSpec, ConstantsNeverToggleEventEngine) {
    check_constants_and_undriven_never_toggle<EventSimulator>();
}

// ------------------------------------------------- wide-vector parsing

namespace {

constexpr const char* kVecHeader =
    "$timescale 1ps $end\n"
    "$var wire 4 # v $end\n"
    "$enddefinitions $end\n";

}  // namespace

TEST(VcdRobustness, WideVectorAccumulatesPerBitToggles) {
    // b101 left-extends to 0101 (IEEE 1364). Transitions: 0000 -> 0101 flips
    // bits 0 and 2; 0101 -> 1111 flips bits 1 and 3.
    const VcdActivity a = parse_string(std::string(kVecHeader) +
                                       "#0\nb0000 #\n#5\nb101 #\n#10\nb1111 #\n");
    EXPECT_EQ(a.toggles.at("v[0]"), 1);
    EXPECT_EQ(a.toggles.at("v[1]"), 1);
    EXPECT_EQ(a.toggles.at("v[2]"), 1);
    EXPECT_EQ(a.toggles.at("v[3]"), 1);
}

TEST(VcdRobustness, VectorUnknownBitsResetPerBitTracking) {
    // bx1 extends with x: bit 0 stays known, bits 1..3 go unknown and their
    // next value re-seeds tracking (matching scalar x semantics).
    const VcdActivity a = parse_string(std::string(kVecHeader) +
                                       "#0\nb1111 #\n#5\nbx1 #\n#10\nb0000 #\n");
    EXPECT_EQ(a.toggles.at("v[0]"), 1);  // 1 -> 1 -> 0
    EXPECT_EQ(a.toggles.at("v[1]"), 0);  // 1 -> x -> 0
    EXPECT_EQ(a.toggles.at("v[3]"), 0);
}

TEST(VcdRobustness, VectorWiderThanDeclarationThrows) {
    EXPECT_THROW((void)parse_string(std::string(kVecHeader) + "#0\nb10101 #\n"),
                 VcdParseError);
}

TEST(VcdRobustness, VectorBadDigitThrows) {
    EXPECT_THROW((void)parse_string(std::string(kVecHeader) + "#0\nb12 #\n"),
                 VcdParseError);
}

TEST(VcdRobustness, VectorChangeBeforeFirstTimestampThrows) {
    EXPECT_THROW((void)parse_string(std::string(kVecHeader) + "b0101 #\n#0\n"),
                 VcdParseError);
}

TEST(VcdRobustness, RealValueChangesAreSkipped) {
    const VcdActivity a = parse_string(std::string(kVecHeader) +
                                       "#0\nr1.5 #\nb0011 #\n#5\nb0000 #\n");
    EXPECT_EQ(a.toggles.at("v[0]"), 1);
    EXPECT_EQ(a.toggles.at("v[1]"), 1);
}

}  // namespace
}  // namespace refpga::sim
