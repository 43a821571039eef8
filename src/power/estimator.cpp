#include "refpga/power/estimator.hpp"

#include <algorithm>
#include <sstream>

#include "refpga/common/table.hpp"

namespace refpga::power {

using netlist::NetId;

PowerReport estimate_power(const par::RoutedDesign& routed,
                           const sim::ActivityMap& activity, double clock_hz,
                           const PowerOptions& options, std::size_t top_net_count) {
    const auto& placement = routed.placement();
    const auto& nl = placement.nl();

    PowerReport report;
    report.static_mw = placement.device().part().static_power_mw();

    // Clock network: toggles twice per cycle => P = C * V^2 * f_clk.
    std::size_t seq_cells = 0;
    for (const auto& c : nl.cells())
        if (c.sequential()) ++seq_cells;
    const double clock_c_pf = options.clock_trunk_pf +
                              options.clock_load_pf_per_ff *
                                  static_cast<double>(seq_cells);
    report.clock_mw =
        clock_c_pf * 1e-12 * options.vdd * options.vdd * clock_hz * 1e3;

    std::vector<NetPowerEntry> entries;
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        const NetId net{i};
        const double c_pf = routed.route(net).capacitance_pf();
        if (c_pf <= 0.0) continue;
        const double rate = activity.rate_hz(net);
        const double p_uw = par::switch_power_uw(c_pf, rate, options.vdd);
        report.logic_mw += p_uw * 1e-3;
        if (p_uw > 0.0)
            entries.push_back({net, std::string(nl.name(net)), p_uw, c_pf, rate});
    }

    // Tie-break equal powers on net id so the top-N cut is deterministic
    // regardless of the (unspecified) std::sort order for equal keys.
    std::sort(entries.begin(), entries.end(),
              [](const NetPowerEntry& a, const NetPowerEntry& b) {
                  if (a.power_uw != b.power_uw) return a.power_uw > b.power_uw;
                  return a.net.value() < b.net.value();
              });
    if (entries.size() > top_net_count) entries.resize(top_net_count);
    report.top_nets = std::move(entries);
    return report;
}

PowerReport estimate_power(const par::RoutedDesign& routed, const sim::SimEngine& sim,
                           double clock_hz, const PowerOptions& options,
                           std::size_t top_net_count) {
    return estimate_power(routed, sim::activity_from_simulation(sim, clock_hz),
                          clock_hz, options, top_net_count);
}

std::string PowerReport::render() const {
    std::ostringstream os;
    os << "power report:\n"
       << "  static : " << Table::num(static_mw) << " mW\n"
       << "  clock  : " << Table::num(clock_mw) << " mW\n"
       << "  logic  : " << Table::num(logic_mw) << " mW\n"
       << "  total  : " << Table::num(total_mw()) << " mW\n";
    if (!top_nets.empty()) {
        Table table({"net", "power (uW)", "C (pF)", "toggle (MHz)"});
        for (const auto& e : top_nets)
            table.add_row({e.name, Table::num(e.power_uw), Table::num(e.capacitance_pf),
                           Table::num(e.toggle_hz * 1e-6)});
        os << table.render();
    }
    return os.str();
}

}  // namespace refpga::power
