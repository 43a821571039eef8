#include "refpga/par/pack.hpp"

#include <algorithm>

namespace refpga::par {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::Netlist;
using netlist::NetId;
using netlist::PartitionId;

SliceId PackedDesign::slice_of(CellId cell) const {
    if (cell.value() >= cell_slice_.size()) return SliceId{};
    return cell_slice_[cell.value()];
}

PackedDesign pack(const Netlist& nl) {
    PackedDesign design;
    design.cell_slice_.assign(nl.cell_count(), SliceId{});

    // Pair each FF with its driving LUT when that LUT drives nothing else
    // (absorbing the LUT->FF connection inside a slice, as real packers do).
    std::vector<CellId> ff_partner(nl.cell_count(), CellId{});  // LUT -> FF
    std::vector<bool> ff_paired(nl.cell_count(), false);
    for (std::uint32_t i = 0; i < nl.cell_count(); ++i) {
        const Cell& c = nl.cell(CellId{i});
        if (c.kind != CellKind::Ff) continue;
        const NetId d = nl.inputs(CellId{i})[0];
        const auto& dnet = nl.net(d);
        if (!dnet.driven() || dnet.fanout() != 1) continue;
        const Cell& drv = nl.cell(dnet.driver.cell);
        if (drv.kind != CellKind::Lut || drv.partition != c.partition) continue;
        if (ff_partner[dnet.driver.cell.value()].valid()) continue;
        ff_partner[dnet.driver.cell.value()] = CellId{i};
        ff_paired[i] = true;
    }

    // Per-partition open slice being filled.
    struct Open {
        bool active = false;
        std::uint32_t index = 0;
    };
    std::vector<Open> open(nl.partitions().size());

    auto place_into_slice = [&](PartitionId part, CellId lut, CellId ff) {
        Open& o = open[part.value()];
        const bool need_new = !o.active ||
                              (lut.valid() && design.slices_[o.index].luts.size() >= 2) ||
                              (ff.valid() && design.slices_[o.index].ffs.size() >= 2);
        if (need_new) {
            design.slices_.push_back(PackedSlice{{}, {}, part});
            o.active = true;
            o.index = static_cast<std::uint32_t>(design.slices_.size() - 1);
        }
        PackedSlice& s = design.slices_[o.index];
        const SliceId sid{o.index};
        if (lut.valid()) {
            s.luts.push_back(lut);
            design.cell_slice_[lut.value()] = sid;
        }
        if (ff.valid()) {
            s.ffs.push_back(ff);
            design.cell_slice_[ff.value()] = sid;
        }
    };

    for (std::uint32_t i = 0; i < nl.cell_count(); ++i) {
        const CellId id{i};
        const Cell& c = nl.cell(id);
        switch (c.kind) {
            case CellKind::Lut:
                place_into_slice(c.partition, id, ff_partner[i]);
                break;
            case CellKind::Ff:
                if (!ff_paired[i]) place_into_slice(c.partition, CellId{}, id);
                break;
            case CellKind::Bram:
                design.brams_.push_back(id);
                break;
            case CellKind::Mult18:
                design.mults_.push_back(id);
                break;
            case CellKind::Inpad:
            case CellKind::Outpad:
                design.pads_.push_back(id);
                break;
            case CellKind::Gnd:
            case CellKind::Vcc:
                break;  // tie-offs use no routed fabric
        }
    }
    return design;
}

}  // namespace refpga::par
