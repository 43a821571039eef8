#include "refpga/netlist/simgraph.hpp"

#include <algorithm>

#include "refpga/common/contracts.hpp"

namespace refpga::netlist {

namespace {

bool is_comb(const Cell& c) {
    return c.kind == CellKind::Lut || c.kind == CellKind::Mult18;
}

/// Sorts and deduplicates the tail of `items` starting at `begin`.
void sort_unique_tail(std::vector<std::uint32_t>& items, std::size_t begin) {
    std::sort(items.begin() + static_cast<std::ptrdiff_t>(begin), items.end());
    items.erase(std::unique(items.begin() + static_cast<std::ptrdiff_t>(begin),
                            items.end()),
                items.end());
}

}  // namespace

SimGraph::SimGraph(const Netlist& nl) {
    const std::size_t cells = nl.cell_count();
    const std::size_t nets = nl.net_count();

    // Per-net consumer CSR, split by consumer kind. Sinks come straight from
    // the nets' sink lists, so one pass over nets fills both tables.
    comb_offsets_.reserve(nets + 1);
    seq_offsets_.reserve(nets + 1);
    comb_offsets_.push_back(0);
    seq_offsets_.push_back(0);
    for (std::uint32_t ni = 0; ni < nets; ++ni) {
        const std::size_t comb_begin = comb_sinks_.size();
        const std::size_t seq_begin = seq_sinks_.size();
        for (const PinRef sink : nl.sinks(NetId{ni})) {
            const Cell& c = nl.cell(sink.cell);
            if (is_comb(c))
                comb_sinks_.push_back(sink.cell.value());
            else if (c.sequential())
                seq_sinks_.push_back(sink.cell.value());
            // Pads and constants have no evaluation to schedule.
        }
        sort_unique_tail(comb_sinks_, comb_begin);
        sort_unique_tail(seq_sinks_, seq_begin);
        comb_offsets_.push_back(static_cast<std::uint32_t>(comb_sinks_.size()));
        seq_offsets_.push_back(static_cast<std::uint32_t>(seq_sinks_.size()));
    }

    // Levelize combinational cells (Kahn over comb->comb edges). level(cell)
    // is the longest chain of combinational drivers feeding it, so draining
    // levels in ascending order evaluates every cell after all its inputs.
    levels_.assign(cells, 0);
    std::vector<std::uint32_t> pending(cells, 0);
    std::size_t comb_count = 0;
    for (std::uint32_t ci = 0; ci < cells; ++ci) {
        const Cell& c = nl.cell(CellId{ci});
        if (c.sequential()) seq_cells_.push_back(ci);
        if (!is_comb(c)) continue;
        ++comb_count;
        // The drain below decrements once per (output net, consumer) pair of
        // the deduplicated consumer CSR, so count exactly those pairs: a cell
        // wired to one net through several pins counts that net once.
        for (const NetId out : nl.outputs(CellId{ci}))
            for (const std::uint32_t dep : comb_consumers(out)) ++pending[dep];
    }

    std::vector<std::uint32_t> queue;
    for (std::uint32_t ci = 0; ci < cells; ++ci)
        if (is_comb(nl.cell(CellId{ci})) && pending[ci] == 0) queue.push_back(ci);

    comb_order_.reserve(comb_count);
    std::size_t head = 0;  // FIFO drain keeps the frontier in level waves
    while (head < queue.size()) {
        const std::uint32_t ci = queue[head++];
        comb_order_.push_back(ci);
        for (const NetId out : nl.outputs(CellId{ci})) {
            for (const std::uint32_t dep : comb_consumers(out)) {
                levels_[dep] = std::max(levels_[dep], levels_[ci] + 1);
                if (--pending[dep] == 0) queue.push_back(dep);
            }
        }
    }
    REFPGA_EXPECTS(comb_order_.size() == comb_count);  // no combinational loop

    // comb_order_ is currently in Kahn completion order; make it strictly
    // level-ascending (stable within a level by cell index for determinism).
    std::stable_sort(comb_order_.begin(), comb_order_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         if (levels_[a] != levels_[b]) return levels_[a] < levels_[b];
                         return a < b;
                     });
    if (!comb_order_.empty()) level_count_ = levels_[comb_order_.back()] + 1;
}

const SimGraph& Netlist::sim_graph() const {
    return sim_graph_.get(
        [this] { return std::shared_ptr<const SimGraph>(new SimGraph(*this)); });
}

}  // namespace refpga::netlist
