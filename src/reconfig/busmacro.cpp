#include "refpga/reconfig/busmacro.hpp"

#include <set>

namespace refpga::reconfig {

using netlist::Builder;
using netlist::Bus;
using netlist::CellKind;
using netlist::NetId;
using netlist::PartitionId;

Bus bus_macro(Builder& builder, const Bus& signals, PartitionId source,
              PartitionId target, const std::string& name) {
    auto& nl = builder.netlist();
    const PartitionId restore = nl.current_partition();
    builder.push_scope(std::string(kBusMacroTag) + "_" + name);

    Bus out;
    out.reserve(signals.size());
    for (std::size_t i = 0; i < signals.size(); ++i) {
        // Source-side buffer (identity LUT) pinned in the source partition...
        nl.set_current_partition(source);
        const NetId staged = builder.lut(0x2, {signals[i]}, "src" + std::to_string(i));
        // ...wired to a sink-side buffer pinned in the target partition.
        nl.set_current_partition(target);
        out.push_back(builder.lut(0x2, {staged}, "dst" + std::to_string(i)));
    }

    builder.pop_scope();
    nl.set_current_partition(restore);
    return out;
}

std::vector<BoundaryViolation> check_boundaries(const netlist::Netlist& nl) {
    std::vector<BoundaryViolation> violations;
    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        const NetId id{i};
        const auto& net = nl.net(id);
        if (!net.driven() || net.is_clock) continue;
        const auto& driver = nl.cell(net.driver.cell);
        if (driver.kind == CellKind::Gnd || driver.kind == CellKind::Vcc) continue;

        const bool is_macro_net =
            nl.name(net.driver.cell).find(kBusMacroTag) != std::string::npos;

        for (const auto& sink : nl.sinks(id)) {
            const auto& sc = nl.cell(sink.cell);
            if (sc.partition == driver.partition) continue;
            if (is_macro_net || nl.name(sink.cell).find(kBusMacroTag) != std::string::npos)
                continue;
            violations.push_back(
                {id, std::string(nl.name(id)), nl.partitions()[driver.partition.value()],
                 nl.partitions()[sc.partition.value()]});
            break;  // one report per net is enough
        }
    }
    return violations;
}

}  // namespace refpga::reconfig
