// app::system_activity: the §4.3 activity the power flow and the benches
// consume. Rates must be the event engine's toggles inside the counting
// window divided by (cycles / clock_hz), and the exported VCD must parse back
// to exactly those rates.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/netlist/builder.hpp"
#include "refpga/sim/event_sim.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::app {
namespace {

using netlist::Bus;
using netlist::NetId;

/// A small datapath behind the measurement system's stimulus ports: a
/// counter enabled by tick_16mhz & adc_valid, and a register of
/// adc_meas ^ adc_ref.
struct Core {
    netlist::Netlist nl;
    NetId enable;
    Bus count;
};

Core make_core() {
    Core c;
    const NetId clk = c.nl.add_input_port("clk", 1)[0];
    netlist::Builder b(c.nl, clk);
    const Bus tick = c.nl.add_input_port("tick_16mhz", 1);
    const Bus valid = c.nl.add_input_port("adc_valid", 1);
    const Bus meas = c.nl.add_input_port("adc_meas", 12);
    const Bus ref = c.nl.add_input_port("adc_ref", 12);
    c.enable = b.and_(tick[0], valid[0]);
    c.count = b.counter(4, c.enable, "count");
    c.nl.add_output_port("count", c.count);
    c.nl.add_output_port("mixed", b.reg(b.xor_bus(meas, ref), NetId{}, "mixed"));
    return c;
}

/// Nets whose rates differ between two maps (by name, for the message).
std::vector<std::string> differing_nets(const netlist::Netlist& nl,
                                        const sim::ActivityMap& a,
                                        const sim::ActivityMap& b) {
    std::vector<std::string> names;
    for (std::uint32_t i = 0; i < nl.net_count(); ++i)
        if (a.rate_hz(NetId{i}) != b.rate_hz(NetId{i}))
            names.push_back(nl.net(NetId{i}).name);
    return names;
}

TEST(SystemActivity, RatesAreWindowedTogglesOverCycles) {
    const Core core = make_core();
    constexpr int kCycles = 48;
    constexpr double kClockHz = 50e6;
    const sim::ActivityMap activity =
        system_activity(core.nl, kClockHz, {.cycles = kCycles});

    // The same stimulus by hand: the held inputs, then the counting window.
    sim::EventSimulator sim(core.nl);
    sim.set_input("tick_16mhz", 1);
    sim.set_input("adc_valid", 1);
    const std::vector<std::int64_t> before = sim.toggle_counts();
    Rng rng(2024);
    for (int t = 0; t < kCycles; ++t) {
        sim.set_input("adc_meas", rng.next_below(4096));
        sim.set_input("adc_ref", rng.next_below(4096));
        sim.tick();
    }

    const double seconds = kCycles / kClockHz;
    ASSERT_EQ(activity.size(), core.nl.net_count());
    for (std::uint32_t i = 0; i < core.nl.net_count(); ++i)
        EXPECT_EQ(activity.rate_hz(NetId{i}),
                  static_cast<double>(sim.toggle_counts()[i] - before[i]) / seconds)
            << core.nl.net(NetId{i}).name;
    EXPECT_DOUBLE_EQ(activity.rate_hz(core.count[0]), kClockHz);
}

TEST(SystemActivity, HeldInputEdgesAreNotCounted) {
    const Core core = make_core();
    const sim::ActivityMap activity = system_activity(core.nl, 50e6, {.cycles = 16});
    EXPECT_EQ(activity.rate_hz(core.nl.find_port("tick_16mhz")->nets[0]), 0.0);
    EXPECT_EQ(activity.rate_hz(core.nl.find_port("adc_valid")->nets[0]), 0.0);
    EXPECT_EQ(activity.rate_hz(core.enable), 0.0);

    // Counted from reset, driving the held inputs is an edge.
    sim::EventSimulator sim(core.nl);
    sim.set_input("tick_16mhz", 1);
    sim.set_input("adc_valid", 1);
    EXPECT_EQ(sim.toggle_counts()[core.enable.value()], 1);
}

TEST(SystemActivity, PlainCoreWithoutStimulusPortsRuns) {
    netlist::Netlist nl;
    const NetId clk = nl.add_input_port("clk", 1)[0];
    netlist::Builder b(nl, clk);
    const Bus q = b.counter(3);
    nl.add_output_port("q", q);
    const sim::ActivityMap activity = system_activity(nl, 1e6, {.cycles = 64});
    EXPECT_DOUBLE_EQ(activity.rate_hz(q[0]), 1e6);
    EXPECT_DOUBLE_EQ(activity.rate_hz(q[2]), 1e6 / 4.0);
}

TEST(SystemActivity, VcdSinkParsesBackToBitEqualActivity) {
    const SystemNetlist sys = build_system_netlist({});
    constexpr int kCycles = 64;
    std::stringstream vcd;
    const sim::ActivityMap activity =
        system_activity(sys.nl, 50e6, {.cycles = kCycles, .vcd = &vcd});

    const sim::VcdActivity parsed = sim::parse_vcd(vcd);
    EXPECT_EQ(parsed.duration_ps, std::int64_t{kCycles} * 20000);
    const std::vector<std::string> differ =
        differing_nets(sys.nl, sim::activity_from_vcd(sys.nl, parsed), activity);
    EXPECT_TRUE(differ.empty()) << differ.size() << " nets differ, first "
                                << differ.front();

    // The sink only observes: the activity is the same without it.
    const sim::ActivityMap plain = system_activity(sys.nl, 50e6, {.cycles = kCycles});
    EXPECT_TRUE(differing_nets(sys.nl, plain, activity).empty());
    std::size_t active = 0;
    for (std::uint32_t i = 0; i < sys.nl.net_count(); ++i)
        if (activity.rate_hz(NetId{i}) > 0.0) ++active;
    EXPECT_GT(active, sys.nl.net_count() / 10);
}

}  // namespace
}  // namespace refpga::app
