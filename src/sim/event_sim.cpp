#include "refpga/sim/event_sim.hpp"

#include <algorithm>

#include "refpga/netlist/drc.hpp"

namespace refpga::sim {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

namespace {

/// A tick is dense, and settled by the sweep, when the previous tick changed
/// more than one net per kDenseDivisor combinational cells: the break-even
/// of the two paths' measured costs. On the Table-2 system (Release, GCC
/// 12.2, shared 4-vCPU host, DESIGN §8) a drained tick costs ≈ 40 ns per
/// changed net, its evaluations, scheduling and FF phase included, and a
/// swept tick ≈ 6 ns per combinational cell, its FF phase and commit
/// included; the ratio read 6.3–8.4 across runs.
constexpr std::size_t kDenseDivisor = 7;

/// The sweep's net write: the toggle count and the changed-list index both
/// advance by the flip bit, so neither branches on whether the net flipped.
/// `changed` has a slot for every net, as each net is written at most once.
struct SweepWrite {
    std::uint8_t* values;
    std::int64_t* toggles;
    NetId* changed;
    std::size_t count = 0;

    void operator()(std::uint32_t net, std::uint8_t value) {
        const std::uint8_t flip = values[net] ^ value;
        values[net] = value;
        toggles[net] += flip;
        changed[count] = NetId{net};
        count += flip;
    }
};

}  // namespace

EventSimulator::EventSimulator(const netlist::Netlist& nl)
    : nl_(nl), graph_(nl.sim_graph()) {
    // A DRC-clean netlist has every input pin wired, so the records read the
    // pin arena as it is.
    netlist::require_clean(nl_);
    // Net index net_count() always reads 0, net_count() + 1 always reads 1.
    const auto zero = static_cast<std::uint32_t>(nl_.net_count());
    const std::uint32_t one = zero + 1;
    values_.assign(nl_.net_count() + 2, 0);
    values_[one] = 1;

    position_.assign(nl_.cell_count(), 0);
    comb_.reserve(graph_.comb_order().size());
    for (const std::uint32_t i : graph_.comb_order()) {
        const Cell& c = nl_.cell(CellId{i});
        position_[i] = static_cast<std::uint32_t>(comb_.size());
        CombRecord r{{zero, zero, zero, zero}, i, 0, false};
        if (c.kind == CellKind::Lut) {
            const std::span<const NetId> in = nl_.inputs(CellId{i});
            REFPGA_EXPECTS(in.size() <= 4);
            for (std::size_t pin = 0; pin < in.size(); ++pin) r.in[pin] = in[pin].value();
            r.out = nl_.outputs(CellId{i})[0].value();
            r.mask = c.lut_mask;
            r.lut = true;
        } else {
            REFPGA_EXPECTS(c.kind == CellKind::Mult18);
        }
        comb_.push_back(r);
    }

    std::size_t output_bits = 0;  // FF and BRAM outputs: the edge's writes
    for (const std::uint32_t i : graph_.seq_cells()) {
        const Cell& c = nl_.cell(CellId{i});
        const std::span<const NetId> in = nl_.inputs(CellId{i});
        if (c.kind == CellKind::Ff) {
            ++output_bits;
            ffs_.push_back({in[0].value(), in.size() > 1 ? in[1].value() : one,
                            nl_.outputs(CellId{i})[0].value(), i, c.clock});
            continue;
        }
        const auto& cfg = nl_.bram_config(c);
        BramRecord b{i,
                     c.bram_index,
                     static_cast<std::uint16_t>(cfg.addr_bits),
                     static_cast<std::uint16_t>(cfg.data_bits),
                     cfg.writable,
                     c.clock};
        output_bits += b.data_bits;
        if (bram_state_.size() <= b.state) bram_state_.resize(b.state + 1);
        bram_state_[b.state] = cfg.init;
        brams_.push_back(b);
    }

    commits_.resize(output_bits);
    toggles_.assign(nl_.net_count(), 0);
    swept_.resize(nl_.net_count());
    queued_.assign(comb_.size(), 0);
    seq_armed_.assign(nl_.cell_count(), 1);  // the first edge evaluates everything
    level_queue_.resize(graph_.level_count());

    const auto clocks = nl_.clock_nets();
    if (!clocks.empty()) default_clock_ = clocks.front();

    // Reset settle: constants, then one sweep. Its transitions are the
    // power-up settle and are not part of the toggle specification
    // (engine.hpp).
    for (std::uint32_t i = 0; i < nl_.cell_count(); ++i)
        if (nl_.cell(CellId{i}).kind == CellKind::Vcc)
            values_[nl_.outputs(CellId{i})[0].value()] = 1;
    (void)sweep_levels({});
    std::fill(toggles_.begin(), toggles_.end(), 0);
    changed_.clear();
}

std::uint64_t EventSimulator::bus(std::span<const NetId> nets) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < nets.size(); ++i)
        v |= std::uint64_t{values_[nets[i].value()]} << i;
    return v;
}

std::int64_t EventSimulator::mult_product(CellId cell) const {
    const std::span<const NetId> in = nl_.inputs(cell);
    const std::size_t a_bits = nl_.cell(cell).lut_mask;  // operand split marker
    const std::size_t b_bits = in.size() - a_bits;
    auto operand = [&](std::size_t first, std::size_t bits) {
        const std::uint64_t raw = bus(in.subspan(first, bits));
        const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
        return static_cast<std::int64_t>(raw ^ sign) - static_cast<std::int64_t>(sign);
    };
    return operand(0, a_bits) * operand(a_bits, b_bits);
}

template <typename Write>
void EventSimulator::eval(const CombRecord& r, Write& write) {
    if (!r.lut) {
        const std::int64_t p = mult_product(CellId{r.out});
        const std::span<const NetId> out = nl_.outputs(CellId{r.out});
        for (std::size_t i = 0; i < out.size(); ++i)
            write(out[i].value(), static_cast<std::uint8_t>((p >> i) & 1));
        return;
    }
    // Input pin i is bit i of the truth-table index; the sentinel reads 0,
    // as an unused pin contributes nothing.
    const std::uint8_t* v = values_.data();
    const unsigned index = static_cast<unsigned>(v[r.in[0]]) |
                           static_cast<unsigned>(v[r.in[1]]) << 1 |
                           static_cast<unsigned>(v[r.in[2]]) << 2 |
                           static_cast<unsigned>(v[r.in[3]]) << 3;
    write(r.out, static_cast<std::uint8_t>((r.mask >> index) & 1));
}

template <typename Write>
void EventSimulator::commit(std::span<const NetWrite> writes, Write& write) {
    for (const NetWrite& w : writes) write(w.net, w.value);
}

std::span<const EventSimulator::NetWrite> EventSimulator::evaluate_sequential(
    NetId clock, bool every) {
    // Computes every next state from current values before any commit. On a
    // sparse tick only armed cells run, and cells armed for another clock
    // stay armed. The writes go to a buffer with a slot per sequential
    // output through a local count, which stays in a register where a
    // push_back's end pointer would be reloaded after every byte store.
    NetWrite* out = commits_.data();
    std::size_t n = 0;
    const std::uint8_t* v = values_.data();
    for (const FfRecord& f : ffs_) {
        if (f.clock != clock) continue;
        if (!every) {
            if (!seq_armed_[f.cell]) continue;
            seq_armed_[f.cell] = 0;
        }
        const auto q = static_cast<std::uint8_t>(v[f.q] ^ ((v[f.d] ^ v[f.q]) & v[f.ce]));
        out[n++] = {f.q, q};
    }
    for (const BramRecord& b : brams_) {
        if (b.clock != clock) continue;
        if (!every) {
            if (!seq_armed_[b.cell]) continue;
            seq_armed_[b.cell] = 0;
        }
        const std::span<const NetId> in = nl_.inputs(CellId{b.cell});
        const auto addr = static_cast<std::size_t>(bus(in.first(b.addr_bits)));
        auto& mem = bram_state_[b.state];
        if (b.writable && v[in[b.addr_bits].value()] != 0)
            mem[addr] = static_cast<std::uint32_t>(bus(in.subspan(b.addr_bits + 1u)));
        const std::uint32_t word = mem[addr];
        const std::span<const NetId> q = nl_.outputs(CellId{b.cell});
        for (std::uint32_t i = 0; i < b.data_bits; ++i)
            out[n++] = {q[i].value(), static_cast<std::uint8_t>((word >> i) & 1)};
    }
    return {out, n};
}

void EventSimulator::set_net(std::uint32_t n, std::uint8_t value) {
    if (values_[n] == value) return;
    values_[n] = value;
    ++toggles_[n];
    const NetId net{n};
    changed_.push_back(net);
    for (const std::uint32_t c : graph_.comb_consumers(net)) schedule(c);
    for (const std::uint32_t c : graph_.seq_consumers(net)) seq_armed_[c] = 1;
}

void EventSimulator::schedule(std::uint32_t cell) {
    const std::uint32_t pos = position_[cell];
    if (queued_[pos]) return;
    queued_[pos] = 1;
    level_queue_[graph_.level_of(cell)].push_back(pos);
}

std::size_t EventSimulator::drain_levels() {
    // Every comb consumer sits at a strictly higher level than its driver, so
    // evaluating level L can only append to queues > L: the index loop over
    // each queue is exhaustive and each cell runs at most once per drain.
    auto write = [this](std::uint32_t n, std::uint8_t value) { set_net(n, value); };
    std::size_t evaluations = 0;
    for (auto& q : level_queue_) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const std::uint32_t pos = q[i];
            queued_[pos] = 0;
            eval(comb_[pos], write);
        }
        evaluations += q.size();
        q.clear();
    }
    return evaluations;
}

std::size_t EventSimulator::sweep_levels(std::span<const NetWrite> edge) {
    SweepWrite write{values_.data(), toggles_.data(), swept_.data()};
    commit(edge, write);
    for (const CombRecord& r : comb_) eval(r, write);
    changed_.assign(swept_.begin(),
                    swept_.begin() + static_cast<std::ptrdiff_t>(write.count));
    std::fill(seq_armed_.begin(), seq_armed_.end(), 1);
    return comb_.size();
}

void EventSimulator::set_input(const std::string& port, std::uint64_t value) {
    const netlist::Port* p = nl_.find_port(port);
    REFPGA_EXPECTS(p != nullptr && p->dir == netlist::PortDir::Input);
    changed_.clear();
    for (std::size_t i = 0; i < p->nets.size(); ++i)
        set_net(p->nets[i].value(), static_cast<std::uint8_t>((value >> i) & 1));
    record(false, false, drain_levels());
}

std::uint64_t EventSimulator::get_port(const std::string& port) const {
    const netlist::Port* p = nl_.find_port(port);
    REFPGA_EXPECTS(p != nullptr);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < p->nets.size(); ++i)
        v |= std::uint64_t{values_[p->nets[i].value()]} << i;
    return v;
}

bool EventSimulator::net_value(NetId net) const {
    REFPGA_EXPECTS(net.value() < nl_.net_count());
    return values_[net.value()] != 0;
}

void EventSimulator::tick(NetId clock) {
    if (!clock.valid()) clock = default_clock_;
    REFPGA_EXPECTS(clock.valid());
    const bool dense = last_tick_changed_ * kDenseDivisor > comb_.size();
    changed_.clear();
    const std::span<const NetWrite> edge = evaluate_sequential(clock, dense);
    std::size_t evaluations = 0;
    if (dense) {
        evaluations = sweep_levels(edge);
    } else {
        auto write = [this](std::uint32_t n, std::uint8_t value) { set_net(n, value); };
        commit(edge, write);
        evaluations = drain_levels();
    }
    last_tick_changed_ = changed_.size();
    ++cycles_;
    record(true, dense, evaluations);
}

void EventSimulator::record(bool tick, bool dense, std::size_t evaluations) {
    if (recorder_ == nullptr || !recorder_->enabled()) return;
    obs::MetricRegistry& m = recorder_->metrics();
    if (tick) m.add(ticks_metric_, 1.0);
    if (dense) m.add(dense_ticks_metric_, 1.0);
    m.add(evaluations_metric_, static_cast<double>(evaluations));
}

void EventSimulator::set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    if (recorder_ == nullptr) return;
    obs::MetricRegistry& m = recorder_->metrics();
    ticks_metric_ = m.counter("sim.ticks_total");
    dense_ticks_metric_ = m.counter("sim.dense_ticks_total");
    evaluations_metric_ = m.counter("sim.evaluations_total");
}

std::uint32_t EventSimulator::bram_word(CellId bram, std::size_t addr) const {
    const Cell& c = nl_.cell(bram);
    REFPGA_EXPECTS(c.kind == CellKind::Bram);
    const auto& mem = bram_state_[c.bram_index];
    REFPGA_EXPECTS(addr < mem.size());
    return mem[addr];
}

void EventSimulator::set_bram_word(CellId bram, std::size_t addr, std::uint32_t value) {
    const Cell& c = nl_.cell(bram);
    REFPGA_EXPECTS(c.kind == CellKind::Bram);
    auto& mem = bram_state_[c.bram_index];
    REFPGA_EXPECTS(addr < mem.size());
    if (mem[addr] != value) seq_armed_[bram.value()] = 1;  // next read may differ
    mem[addr] = value;
}

}  // namespace refpga::sim
