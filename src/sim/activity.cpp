#include "refpga/sim/activity.hpp"

#include <algorithm>

#include "refpga/common/contracts.hpp"

namespace refpga::sim {

std::vector<netlist::NetId> ActivityMap::busiest(std::size_t count) const {
    std::vector<netlist::NetId> order;
    order.reserve(rate_hz_.size());
    for (std::uint32_t i = 0; i < rate_hz_.size(); ++i)
        order.push_back(netlist::NetId{i});
    std::sort(order.begin(), order.end(), [&](netlist::NetId a, netlist::NetId b) {
        if (rate_hz_[a.value()] != rate_hz_[b.value()])
            return rate_hz_[a.value()] > rate_hz_[b.value()];
        return a < b;
    });
    if (order.size() > count) order.resize(count);
    return order;
}

ActivityMap activity_from_simulation(const SimEngine& sim, double clock_hz) {
    REFPGA_EXPECTS(clock_hz > 0.0);
    REFPGA_EXPECTS(sim.cycle_count() > 0);
    const double seconds = static_cast<double>(sim.cycle_count()) / clock_hz;
    ActivityMap map(sim.netlist().net_count());
    const auto& toggles = sim.toggle_counts();
    for (std::uint32_t i = 0; i < toggles.size(); ++i)
        map.set_rate(netlist::NetId{i}, static_cast<double>(toggles[i]) / seconds);
    return map;
}

ActivityMap activity_from_vcd(const netlist::Netlist& nl, const VcdActivity& vcd) {
    ActivityMap map(nl.net_count());
    if (vcd.duration_ps <= 0) return map;
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        const auto it = vcd.toggles.find(nl.name(netlist::NetId{i}));
        if (it != vcd.toggles.end())
            map.set_rate(netlist::NetId{i},
                         static_cast<double>(it->second) /
                             (static_cast<double>(vcd.duration_ps) * 1e-12));
    }
    return map;
}

}  // namespace refpga::sim
