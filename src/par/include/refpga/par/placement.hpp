// Placement: packed slices -> slice sites on a device, with floorplan
// region constraints per partition (static area vs reconfigurable slots).
#pragma once

#include <optional>
#include <vector>

#include "refpga/fabric/device.hpp"
#include "refpga/netlist/netlist.hpp"
#include "refpga/par/pack.hpp"

namespace refpga::par {

class Placement {
public:
    Placement(const fabric::Device& dev, const netlist::Netlist& nl,
              const PackedDesign& design);

    [[nodiscard]] const fabric::Device& device() const { return *dev_; }
    [[nodiscard]] const netlist::Netlist& nl() const { return *nl_; }
    [[nodiscard]] const PackedDesign& design() const { return *design_; }

    /// Restricts a partition's slices to `region`. Must be set before
    /// place_initial(). Unconstrained partitions use the full device.
    void constrain(netlist::PartitionId partition, const fabric::Region& region);
    [[nodiscard]] fabric::Region region_of(netlist::PartitionId partition) const;

    /// Deterministic initial placement: fills each partition's region in
    /// scan order; BRAM/MULT cells take the nearest dedicated site; pads are
    /// spread along the bottom edge. Throws if a region is too small.
    void place_initial();

    [[nodiscard]] fabric::SliceCoord slice_pos(SliceId s) const;

    /// Site occupancy: slice at a site, or invalid id.
    [[nodiscard]] SliceId slice_at(const fabric::SliceCoord& pos) const;

    /// Swap the contents of two sites (either may be empty).
    void swap_sites(const fabric::SliceCoord& a, const fabric::SliceCoord& b);

    /// Position of any placed cell (slice cells, BRAM, MULT, pads).
    /// Invalid cells (constants) report {0,0,0}.
    [[nodiscard]] fabric::SliceCoord cell_pos(netlist::CellId cell) const;

    /// Half-perimeter wirelength of a net in tiles (0 for clocks/constants).
    [[nodiscard]] int net_hpwl(netlist::NetId net) const;
    [[nodiscard]] long total_hpwl() const;

    /// True when a net should not use general routing (clock or constant).
    [[nodiscard]] bool dedicated_net(netlist::NetId net) const;

private:
    [[nodiscard]] std::size_t site_index(const fabric::SliceCoord& pos) const;

    const fabric::Device* dev_;
    const netlist::Netlist* nl_;
    const PackedDesign* design_;
    std::vector<std::optional<fabric::Region>> regions_;  ///< per partition
    std::vector<fabric::SliceCoord> slice_pos_;           ///< per slice
    std::vector<SliceId> site_to_slice_;                  ///< per site
    std::vector<fabric::SliceCoord> bram_pos_;            ///< per design.brams() entry
    std::vector<fabric::SliceCoord> mult_pos_;
    std::vector<fabric::SliceCoord> pad_pos_;
    std::vector<fabric::SliceCoord> fixed_pos_;           ///< per cell; index -1 = none
    bool placed_ = false;
};

}  // namespace refpga::par
