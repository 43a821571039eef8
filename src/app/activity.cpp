#include "refpga/app/activity.hpp"

#include <optional>
#include <vector>

#include "refpga/common/contracts.hpp"
#include "refpga/common/rng.hpp"
#include "refpga/sim/event_sim.hpp"
#include "refpga/sim/vcd.hpp"

namespace refpga::app {

sim::ActivityMap system_activity(const netlist::Netlist& nl, double clock_hz,
                                 const ActivityOptions& opts) {
    REFPGA_EXPECTS(clock_hz > 0.0 && opts.cycles > 0);
    sim::EventSimulator engine(nl);
    engine.set_recorder(opts.recorder);
    for (const char* held : {"tick_16mhz", "adc_valid"})
        if (nl.find_port(held) != nullptr) engine.set_input(held, 1);

    // The counting window opens here: the held inputs' edges are not activity.
    const std::vector<std::int64_t> before = engine.toggle_counts();
    std::optional<sim::VcdWriter> vcd;
    if (opts.vcd != nullptr) {
        std::vector<netlist::NetId> nets;
        nets.reserve(nl.net_count());
        for (std::uint32_t i = 0; i < nl.net_count(); ++i) nets.push_back(netlist::NetId{i});
        vcd.emplace(*opts.vcd, engine, std::move(nets));
        vcd->sample(0);
    }

    const bool drive_meas = nl.find_port("adc_meas") != nullptr;
    const bool drive_ref = nl.find_port("adc_ref") != nullptr;
    const double period_ps = 1e12 / clock_hz;
    Rng rng(2024);
    for (int t = 1; t <= opts.cycles; ++t) {
        if (drive_meas) engine.set_input("adc_meas", rng.next_below(4096));
        if (drive_ref) engine.set_input("adc_ref", rng.next_below(4096));
        engine.tick();
        if (vcd) vcd->sample(static_cast<std::int64_t>(t * period_ps));
    }

    const double seconds = static_cast<double>(opts.cycles) / clock_hz;
    const std::vector<std::int64_t>& after = engine.toggle_counts();
    sim::ActivityMap activity(nl.net_count());
    for (std::uint32_t i = 0; i < after.size(); ++i)
        activity.set_rate(netlist::NetId{i},
                          static_cast<double>(after[i] - before[i]) / seconds);
    return activity;
}

}  // namespace refpga::app
