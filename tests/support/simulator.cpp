#include "refpga/sim/simulator.hpp"

#include <algorithm>

#include "refpga/netlist/drc.hpp"

namespace refpga::sim {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::Net;
using netlist::NetId;

Simulator::Simulator(const netlist::Netlist& nl) : nl_(nl) {
    netlist::require_clean(nl_);
    values_.assign(nl_.net_count(), 0);
    toggles_.assign(nl_.net_count(), 0);

    for (std::uint32_t i = 0; i < nl_.cell_count(); ++i) {
        const Cell& c = nl_.cell(CellId{i});
        if (c.sequential()) {
            seq_cells_.push_back(i);
            if (c.kind == CellKind::Bram)
                bram_state_.push_back(nl_.bram_config(c).init);
            else
                bram_state_.emplace_back();
        } else {
            bram_state_.emplace_back();
        }
    }

    const auto clocks = nl_.clock_nets();
    if (!clocks.empty()) default_clock_ = clocks.front();

    levelize();
    // Constants must be reflected before the first settle.
    for (std::uint32_t i = 0; i < nl_.cell_count(); ++i) {
        const Cell& c = nl_.cell(CellId{i});
        if (c.kind == CellKind::Vcc) values_[nl_.outputs(CellId{i})[0].value()] = 1;
    }
    settle();
    // The settle above only establishes the reset steady state; activity
    // accounting starts from zero so the power-up transition is never
    // reported as a toggle (constant-driven and undriven nets stay at 0
    // forever). See engine.hpp for the full specification.
    std::fill(toggles_.begin(), toggles_.end(), 0);
    changed_.clear();
}

void Simulator::levelize() {
    // Kahn's algorithm over combinational cells; dependencies flow from a
    // cell's input nets' combinational drivers.
    std::vector<int> pending(nl_.cell_count(), 0);
    std::vector<std::vector<std::uint32_t>> dependents(nl_.cell_count());

    auto is_comb = [&](const Cell& c) {
        return c.kind == CellKind::Lut || c.kind == CellKind::Mult18 ||
               c.kind == CellKind::Outpad;
    };

    for (std::uint32_t i = 0; i < nl_.cell_count(); ++i) {
        const Cell& c = nl_.cell(CellId{i});
        if (!is_comb(c)) continue;
        for (const NetId in : nl_.inputs(CellId{i})) {
            if (!in.valid()) continue;
            const Net& n = nl_.net(in);
            if (!n.driven()) continue;
            const Cell& drv = nl_.cell(n.driver.cell);
            if (is_comb(drv) && drv.kind != CellKind::Outpad) {
                ++pending[i];
                dependents[n.driver.cell.value()].push_back(i);
            }
        }
    }

    std::vector<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < nl_.cell_count(); ++i) {
        const Cell& c = nl_.cell(CellId{i});
        if (is_comb(c) && pending[i] == 0) ready.push_back(i);
    }
    while (!ready.empty()) {
        const std::uint32_t i = ready.back();
        ready.pop_back();
        comb_order_.push_back(i);
        for (const std::uint32_t dep : dependents[i])
            if (--pending[dep] == 0) ready.push_back(dep);
    }
}

bool Simulator::in_value(CellId cell, std::size_t pin) const {
    const NetId n = nl_.inputs(cell)[pin];
    return n.valid() && values_[n.value()] != 0;
}

std::uint64_t Simulator::bus_in(CellId cell, std::size_t first, std::size_t count) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < count; ++i)
        if (in_value(cell, first + i)) v |= std::uint64_t{1} << i;
    return v;
}

void Simulator::set_net(NetId net, bool value) {
    std::uint8_t& slot = values_[net.value()];
    const auto v = static_cast<std::uint8_t>(value);
    if (slot != v) {
        slot = v;
        ++toggles_[net.value()];
        changed_.push_back(net);
    }
}

void Simulator::eval_cell(std::uint32_t cell_index) {
    const CellId id{cell_index};
    const Cell& c = nl_.cell(id);
    switch (c.kind) {
        case CellKind::Lut: {
            std::uint32_t index = 0;
            for (std::size_t i = 0; i < nl_.inputs(id).size(); ++i)
                if (in_value(id, i)) index |= 1u << i;
            set_net(nl_.outputs(id)[0], ((c.lut_mask >> index) & 1) != 0);
            break;
        }
        case CellKind::Mult18: {
            const std::size_t a_bits = c.lut_mask;  // operand split marker
            const std::size_t b_bits = nl_.inputs(id).size() - a_bits;
            auto sext = [](std::uint64_t raw, std::size_t bits) {
                const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
                return static_cast<std::int64_t>((raw ^ sign)) -
                       static_cast<std::int64_t>(sign);
            };
            const std::int64_t a = sext(bus_in(id, 0, a_bits), a_bits);
            const std::int64_t b = sext(bus_in(id, a_bits, b_bits), b_bits);
            const std::int64_t p = a * b;
            for (std::size_t i = 0; i < nl_.outputs(id).size(); ++i)
                set_net(nl_.outputs(id)[i], ((p >> i) & 1) != 0);
            break;
        }
        case CellKind::Outpad:
            break;  // observation only
        default:
            break;  // sequential/pads handled elsewhere
    }
}

void Simulator::settle() {
    for (const std::uint32_t i : comb_order_) eval_cell(i);
}

void Simulator::set_input(const std::string& port, std::uint64_t value) {
    const netlist::Port* p = nl_.find_port(port);
    REFPGA_EXPECTS(p != nullptr && p->dir == netlist::PortDir::Input);
    changed_.clear();
    for (std::size_t i = 0; i < p->nets.size(); ++i)
        set_net(p->nets[i], ((value >> i) & 1) != 0);
    settle();
}

std::uint64_t Simulator::get_port(const std::string& port) const {
    const netlist::Port* p = nl_.find_port(port);
    REFPGA_EXPECTS(p != nullptr);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < p->nets.size(); ++i)
        if (values_[p->nets[i].value()] != 0) v |= std::uint64_t{1} << i;
    return v;
}

bool Simulator::net_value(NetId net) const {
    REFPGA_EXPECTS(net.value() < values_.size());
    return values_[net.value()] != 0;
}

void Simulator::tick(NetId clock) {
    if (!clock.valid()) clock = default_clock_;
    REFPGA_EXPECTS(clock.valid());
    changed_.clear();

    // Phase 1: compute every sequential cell's next state from current values.
    struct FfUpdate {
        std::uint32_t cell;
        bool q;
    };
    struct BramUpdate {
        std::uint32_t cell;
        std::uint32_t read_word;
    };
    std::vector<FfUpdate> ff_updates;
    std::vector<BramUpdate> bram_updates;

    for (const std::uint32_t i : seq_cells_) {
        const CellId id{i};
        const Cell& c = nl_.cell(id);
        if (c.clock != clock) continue;
        if (c.kind == CellKind::Ff) {
            const auto in = nl_.inputs(id);
            const bool enabled = in.size() < 2 || !in[1].valid() || values_[in[1].value()] != 0;
            if (enabled)
                ff_updates.push_back({i, in_value(id, 0)});
        } else {  // BRAM
            const auto& cfg = nl_.bram_config(c);
            const auto addr =
                static_cast<std::size_t>(bus_in(id, 0, static_cast<std::size_t>(cfg.addr_bits)));
            auto& mem = bram_state_[i];
            if (cfg.writable) {
                const std::size_t we_pin = static_cast<std::size_t>(cfg.addr_bits);
                if (in_value(id, we_pin)) {
                    const std::uint64_t w =
                        bus_in(id, we_pin + 1, static_cast<std::size_t>(cfg.data_bits));
                    mem[addr] = static_cast<std::uint32_t>(w);
                }
            }
            bram_updates.push_back({i, mem[addr]});
        }
    }

    // Phase 2: commit outputs, then settle the combinational fabric.
    for (const FfUpdate& u : ff_updates)
        set_net(nl_.outputs(CellId{u.cell})[0], u.q);
    for (const BramUpdate& u : bram_updates) {
        const auto outs = nl_.outputs(CellId{u.cell});
        for (std::size_t bit = 0; bit < outs.size(); ++bit)
            set_net(outs[bit], ((u.read_word >> bit) & 1) != 0);
    }
    settle();
    ++cycles_;
}

std::uint32_t Simulator::bram_word(CellId bram, std::size_t addr) const {
    const Cell& c = nl_.cell(bram);
    REFPGA_EXPECTS(c.kind == CellKind::Bram);
    const auto& mem = bram_state_[bram.value()];
    REFPGA_EXPECTS(addr < mem.size());
    return mem[addr];
}

void Simulator::set_bram_word(CellId bram, std::size_t addr, std::uint32_t value) {
    const Cell& c = nl_.cell(bram);
    REFPGA_EXPECTS(c.kind == CellKind::Bram);
    auto& mem = bram_state_[bram.value()];
    REFPGA_EXPECTS(addr < mem.size());
    mem[addr] = value;
}

}  // namespace refpga::sim
