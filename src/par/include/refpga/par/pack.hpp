// Packing: netlist cells -> slices.
//
// A Spartan-3 slice holds 2 LUTs and 2 FFs. The packer pairs each LUT with a
// FF it directly feeds (the classic LUT->FF pair), then fills slices two
// pairs at a time, never mixing partitions within a slice (a partition is a
// floorplan unit: the static area or one reconfigurable module).
#pragma once

#include <array>
#include <vector>

#include "refpga/common/contracts.hpp"
#include "refpga/netlist/netlist.hpp"

namespace refpga::par {

struct SliceIdTag {};
using SliceId = StrongId<SliceIdTag>;

/// The LUTs or the FFs of one slice, at most two, held inline.
class SliceCells {
public:
    [[nodiscard]] const netlist::CellId* begin() const { return cells_.data(); }
    [[nodiscard]] const netlist::CellId* end() const { return cells_.data() + size_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    void push_back(netlist::CellId cell) {
        REFPGA_EXPECTS(size_ < cells_.size());
        cells_[size_++] = cell;
    }

private:
    std::array<netlist::CellId, 2> cells_{};
    std::uint32_t size_ = 0;
};

struct PackedSlice {
    SliceCells luts;
    SliceCells ffs;
    netlist::PartitionId partition;
};

class PackedDesign {
public:
    [[nodiscard]] const std::vector<PackedSlice>& slices() const { return slices_; }
    [[nodiscard]] std::size_t slice_count() const { return slices_.size(); }

    /// Slice holding a LUT/FF cell; invalid id for BRAM/MULT/pads/constants.
    [[nodiscard]] SliceId slice_of(netlist::CellId cell) const;

    [[nodiscard]] const std::vector<netlist::CellId>& brams() const { return brams_; }
    [[nodiscard]] const std::vector<netlist::CellId>& mults() const { return mults_; }
    [[nodiscard]] const std::vector<netlist::CellId>& pads() const { return pads_; }

private:
    friend PackedDesign pack(const netlist::Netlist& nl);

    std::vector<PackedSlice> slices_;
    std::vector<SliceId> cell_slice_;  ///< indexed by CellId
    std::vector<netlist::CellId> brams_;
    std::vector<netlist::CellId> mults_;
    std::vector<netlist::CellId> pads_;
};

[[nodiscard]] PackedDesign pack(const netlist::Netlist& nl);

}  // namespace refpga::par
