#include "refpga/par/implementation.hpp"

namespace refpga::par {

Implementation::Implementation(const netlist::Netlist& nl, fabric::PartName part,
                               const PlacerOptions& options,
                               const sim::ActivityMap* activity)
    : packed(pack(nl)),
      device(part),
      placement(device, nl, packed),
      routed(placement, ChannelCapacity{}) {
    placement.place_initial();
    anneal_result = anneal(placement, options, activity);
    routed.route_all(RouteMode::Performance);
}

}  // namespace refpga::par
