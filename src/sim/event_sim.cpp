#include "refpga/sim/event_sim.hpp"

#include <algorithm>

#include "refpga/netlist/drc.hpp"

namespace refpga::sim {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

EventSimulator::EventSimulator(const netlist::Netlist& nl) : nl_(nl), graph_(nl) {
    netlist::require_clean(nl_);
    // Net index net_count() is the sentinel: never set, so it always reads 0.
    const auto sentinel = static_cast<std::uint32_t>(nl_.net_count());
    words_.assign(nl_.net_count() / 64 + 1, 0);
    comb_.assign(nl_.cell_count(), CombRecord{{sentinel, sentinel, sentinel, sentinel},
                                              sentinel, 0, false});
    for (const std::uint32_t i : graph_.comb_order()) {
        const Cell& c = nl_.cell(CellId{i});
        if (c.kind != CellKind::Lut) continue;
        REFPGA_EXPECTS(c.inputs.size() <= 4);
        CombRecord& r = comb_[i];
        for (std::size_t pin = 0; pin < c.inputs.size(); ++pin)
            if (c.inputs[pin].valid()) r.in[pin] = c.inputs[pin].value();
        r.out = c.outputs[0].value();
        r.mask = c.lut_mask;
        r.lut = true;
    }
    toggles_.assign(nl_.net_count(), 0);
    in_queue_.assign(nl_.cell_count(), 0);
    seq_armed_.assign(nl_.cell_count(), 0);
    level_queue_.resize(graph_.level_count());
    bram_state_.resize(nl_.cell_count());

    for (const std::uint32_t i : graph_.seq_cells()) {
        const Cell& c = nl_.cell(CellId{i});
        if (c.kind == CellKind::Bram) bram_state_[i] = nl_.bram_config(c).init;
        seq_armed_[i] = 1;  // the first matching edge must evaluate everything
    }

    const auto clocks = nl_.clock_nets();
    if (!clocks.empty()) default_clock_ = clocks.front();

    // Reset settle: propagate constants, then one full sweep in level order.
    // Events take over afterwards; the sweep's transitions are the power-up
    // settle and are not part of the toggle specification (engine.hpp).
    for (std::uint32_t i = 0; i < nl_.cell_count(); ++i) {
        const Cell& c = nl_.cell(CellId{i});
        if (c.kind == CellKind::Vcc) set_net(c.outputs[0].value(), true);
    }
    for (const std::uint32_t ci : graph_.comb_order()) eval_cell(ci);
    for (auto& q : level_queue_) q.clear();
    std::fill(in_queue_.begin(), in_queue_.end(), 0);
    std::fill(toggles_.begin(), toggles_.end(), 0);
    changed_.clear();
}

bool EventSimulator::in_value(const Cell& c, std::size_t pin) const {
    const NetId n = c.inputs[pin];
    return n.valid() && bit(n.value());
}

std::uint64_t EventSimulator::bus_in(const Cell& c, std::size_t first,
                                     std::size_t count) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < count; ++i)
        if (in_value(c, first + i)) v |= std::uint64_t{1} << i;
    return v;
}

void EventSimulator::set_net(std::uint32_t n, bool value) {
    const std::uint64_t mask = std::uint64_t{1} << (n & 63);
    std::uint64_t& word = words_[n >> 6];
    if (((word & mask) != 0) == value) return;
    word ^= mask;
    ++toggles_[n];
    const NetId net{n};
    changed_.push_back(net);
    for (const std::uint32_t c : graph_.comb_consumers(net)) schedule(c);
    for (const std::uint32_t c : graph_.seq_consumers(net)) seq_armed_[c] = 1;
}

void EventSimulator::schedule(std::uint32_t cell) {
    if (in_queue_[cell]) return;
    in_queue_[cell] = 1;
    level_queue_[graph_.level_of(cell)].push_back(cell);
}

void EventSimulator::eval_cell(std::uint32_t cell_index) {
    const CombRecord& r = comb_[cell_index];
    if (!r.lut) {
        eval_mult(nl_.cell(CellId{cell_index}));
        return;
    }
    // Input pin i is bit i of the truth-table index; the sentinel reads 0,
    // as an unused pin contributes nothing.
    const unsigned index = static_cast<unsigned>(bit(r.in[0])) |
                           static_cast<unsigned>(bit(r.in[1])) << 1 |
                           static_cast<unsigned>(bit(r.in[2])) << 2 |
                           static_cast<unsigned>(bit(r.in[3])) << 3;
    set_net(r.out, ((r.mask >> index) & 1) != 0);
}

void EventSimulator::eval_mult(const Cell& c) {
    // The combinational graph holds LUTs and MULT18s only.
    REFPGA_EXPECTS(c.kind == CellKind::Mult18);
    const std::size_t a_bits = c.lut_mask;  // operand split marker
    const std::size_t b_bits = c.inputs.size() - a_bits;
    auto sext = [](std::uint64_t raw, std::size_t bits) {
        const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
        return static_cast<std::int64_t>((raw ^ sign)) - static_cast<std::int64_t>(sign);
    };
    const std::int64_t a = sext(bus_in(c, 0, a_bits), a_bits);
    const std::int64_t b = sext(bus_in(c, a_bits, b_bits), b_bits);
    const std::int64_t p = a * b;
    for (std::size_t i = 0; i < c.outputs.size(); ++i)
        set_net(c.outputs[i].value(), ((p >> i) & 1) != 0);
}

void EventSimulator::drain_levels() {
    // Every comb consumer sits at a strictly higher level than its driver, so
    // evaluating level L can only append to queues > L: the index loop over
    // each queue is exhaustive and each cell runs at most once per drain.
    for (auto& q : level_queue_) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const std::uint32_t ci = q[i];
            in_queue_[ci] = 0;
            eval_cell(ci);
        }
        q.clear();
    }
}

void EventSimulator::set_input(const std::string& port, std::uint64_t value) {
    const netlist::Port* p = nl_.find_port(port);
    REFPGA_EXPECTS(p != nullptr && p->dir == netlist::PortDir::Input);
    changed_.clear();
    for (std::size_t i = 0; i < p->nets.size(); ++i)
        set_net(p->nets[i].value(), ((value >> i) & 1) != 0);
    drain_levels();
}

std::uint64_t EventSimulator::get_port(const std::string& port) const {
    const netlist::Port* p = nl_.find_port(port);
    REFPGA_EXPECTS(p != nullptr);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < p->nets.size(); ++i)
        if (bit(p->nets[i].value())) v |= std::uint64_t{1} << i;
    return v;
}

bool EventSimulator::net_value(NetId net) const {
    REFPGA_EXPECTS(net.value() < nl_.net_count());
    return bit(net.value());
}

void EventSimulator::tick(NetId clock) {
    if (!clock.valid()) clock = default_clock_;
    REFPGA_EXPECTS(clock.valid());
    changed_.clear();
    ff_scratch_.clear();
    bram_scratch_.clear();

    // Phase 1: evaluate only armed cells on this clock; others are skipped
    // (their next state provably equals their current outputs). Cells armed
    // for a different clock stay armed.
    for (const std::uint32_t i : graph_.seq_cells()) {
        if (!seq_armed_[i]) continue;
        const Cell& c = nl_.cell(CellId{i});
        if (c.clock != clock) continue;
        seq_armed_[i] = 0;
        if (c.kind == CellKind::Ff) {
            const bool enabled =
                c.inputs.size() < 2 || !c.inputs[1].valid() || in_value(c, 1);
            if (enabled) ff_scratch_.push_back({c.outputs[0].value(), in_value(c, 0)});
        } else {  // BRAM
            const auto& cfg = nl_.bram_config(c);
            const auto addr = static_cast<std::size_t>(
                bus_in(c, 0, static_cast<std::size_t>(cfg.addr_bits)));
            auto& mem = bram_state_[i];
            if (cfg.writable) {
                const std::size_t we_pin = static_cast<std::size_t>(cfg.addr_bits);
                if (in_value(c, we_pin)) {
                    const std::uint64_t w =
                        bus_in(c, we_pin + 1, static_cast<std::size_t>(cfg.data_bits));
                    mem[addr] = static_cast<std::uint32_t>(w);
                }
            }
            bram_scratch_.push_back({i, mem[addr]});
        }
    }

    // Phase 2: commit outputs (set_net re-arms feedback consumers), then
    // drain the dirtied combinational levels.
    for (const FfUpdate& u : ff_scratch_) set_net(u.q_net, u.q);
    for (const BramUpdate& u : bram_scratch_) {
        const Cell& c = nl_.cell(CellId{u.cell});
        for (std::size_t b = 0; b < c.outputs.size(); ++b)
            set_net(c.outputs[b].value(), ((u.read_word >> b) & 1) != 0);
    }
    drain_levels();
    ++cycles_;
}

std::uint32_t EventSimulator::bram_word(CellId bram, std::size_t addr) const {
    const Cell& c = nl_.cell(bram);
    REFPGA_EXPECTS(c.kind == CellKind::Bram);
    const auto& mem = bram_state_[bram.value()];
    REFPGA_EXPECTS(addr < mem.size());
    return mem[addr];
}

void EventSimulator::set_bram_word(CellId bram, std::size_t addr, std::uint32_t value) {
    const Cell& c = nl_.cell(bram);
    REFPGA_EXPECTS(c.kind == CellKind::Bram);
    auto& mem = bram_state_[bram.value()];
    REFPGA_EXPECTS(addr < mem.size());
    if (mem[addr] != value) seq_armed_[bram.value()] = 1;  // next read may differ
    mem[addr] = value;
}

}  // namespace refpga::sim
