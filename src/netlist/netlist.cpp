#include "refpga/netlist/netlist.hpp"

namespace refpga::netlist {

const char* cell_kind_name(CellKind kind) {
    switch (kind) {
        case CellKind::Lut: return "LUT";
        case CellKind::Ff: return "FF";
        case CellKind::Bram: return "BRAM";
        case CellKind::Mult18: return "MULT18";
        case CellKind::Inpad: return "INPAD";
        case CellKind::Outpad: return "OUTPAD";
        case CellKind::Gnd: return "GND";
        case CellKind::Vcc: return "VCC";
    }
    return "?";
}

Netlist::Netlist() {
    partition_names_.push_back("static");
    current_partition_ = PartitionId{0};
}

// `name` may be a view into names_ itself: append copies a range that is
// valid when it is called, whether or not the string then grows.
void Netlist::intern(std::string_view name, std::string_view suffix,
                     std::uint32_t& offset, std::uint32_t& size) {
    offset = static_cast<std::uint32_t>(names_.size());
    names_.append(name);
    names_.append(suffix);
    size = static_cast<std::uint32_t>(names_.size() - offset);
}

NetId Netlist::add_net(std::string_view name) {
    Net& n = nets_.emplace_back();
    intern(name, {}, n.name_, n.name_size_);
    changed();
    return NetId{static_cast<std::uint32_t>(nets_.size() - 1)};
}

CellId Netlist::new_cell(CellKind kind, std::string_view name, std::size_t inputs,
                         std::size_t outputs) {
    Cell& c = cells_.emplace_back();
    c.kind = kind;
    c.partition = current_partition_;
    c.pins_ = static_cast<std::uint32_t>(pins_.size());
    c.inputs_ = static_cast<std::uint16_t>(inputs);
    c.outputs_ = static_cast<std::uint16_t>(outputs);
    intern(name, {}, c.name_, c.name_size_);
    pins_.resize(pins_.size() + inputs + outputs);
    log_entry_.resize(pins_.size());
    changed();
    return CellId{static_cast<std::uint32_t>(cells_.size() - 1)};
}

void Netlist::connect_input(CellId cell_id, std::uint16_t pin, NetId net_id) {
    REFPGA_EXPECTS(net_id.value() < nets_.size());
    const Cell& c = cell(cell_id);
    REFPGA_EXPECTS(pin < c.inputs_);
    pins_[c.pins_ + pin] = net_id;
    log_entry_[c.pins_ + pin] = static_cast<std::uint32_t>(sink_log_.size());
    sink_log_.push_back(PinRef{cell_id, pin});
    ++nets_[net_id.value()].fanout_;
}

NetId Netlist::new_output(CellId cell_id, std::uint16_t pin, std::string_view name,
                          std::string_view suffix) {
    const NetId out{static_cast<std::uint32_t>(nets_.size())};
    Net& n = nets_.emplace_back();
    intern(name, suffix, n.name_, n.name_size_);
    n.driver = PinRef{cell_id, pin};
    const Cell& c = cell(cell_id);
    pins_[c.pins_ + c.inputs_ + pin] = out;
    return out;
}

void Netlist::rewire(PinRef sink, NetId net_id) {
    REFPGA_EXPECTS(net_id.value() < nets_.size());
    const Cell& c = cell(sink.cell);
    REFPGA_EXPECTS(sink.pin < c.inputs_);
    NetId& slot = pins_[c.pins_ + sink.pin];
    REFPGA_EXPECTS(slot.valid());
    --nets_[slot.value()].fanout_;
    sink_log_[log_entry_[c.pins_ + sink.pin]].cell = CellId{};
    slot = NetId{};
    connect_input(sink.cell, sink.pin, net_id);
    changed();
}

std::shared_ptr<const Netlist::SinkIndex> Netlist::make_sink_index() const {
    auto index = std::make_shared<SinkIndex>();
    index->begin.resize(nets_.size() + 1, 0);
    for (std::size_t i = 0; i < nets_.size(); ++i)
        index->begin[i + 1] = index->begin[i] + nets_[i].fanout_;
    index->pins.resize(index->begin.back());
    std::vector<std::uint32_t> next(index->begin.begin(), index->begin.end() - 1);
    for (const PinRef& sink : sink_log_)
        if (sink.cell.valid())
            index->pins[next[pins_[cells_[sink.cell.value()].pins_ + sink.pin].value()]++] = sink;
    return index;
}

NetId Netlist::add_lut(std::uint16_t mask, std::span<const NetId> inputs,
                       std::string_view name) {
    REFPGA_EXPECTS(!inputs.empty() && inputs.size() <= 4);
    const CellId id = new_cell(CellKind::Lut, name, inputs.size(), 1);
    cells_.back().lut_mask = mask;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        connect_input(id, static_cast<std::uint16_t>(i), inputs[i]);
    return new_output(id, 0, this->name(id), ".o");
}

NetId Netlist::add_ff(NetId d, NetId clock, NetId ce, std::string_view name) {
    REFPGA_EXPECTS(d.valid() && clock.valid());
    const CellId id = new_cell(CellKind::Ff, name, ce.valid() ? 2 : 1, 1);
    cells_.back().clock = clock;
    connect_input(id, 0, d);
    if (ce.valid()) connect_input(id, 1, ce);
    nets_[clock.value()].is_clock = true;
    return new_output(id, 0, this->name(id), ".q");
}

std::vector<NetId> Netlist::add_bram(const BramConfig& cfg, std::span<const NetId> addr,
                                     NetId clock, NetId we, std::span<const NetId> wdata,
                                     std::string_view name) {
    REFPGA_EXPECTS(cfg.addr_bits >= 1 && cfg.addr_bits <= 14);
    REFPGA_EXPECTS(cfg.data_bits >= 1 && cfg.data_bits <= 32);
    REFPGA_EXPECTS(addr.size() == static_cast<std::size_t>(cfg.addr_bits));
    REFPGA_EXPECTS(!cfg.writable || wdata.size() == static_cast<std::size_t>(cfg.data_bits));
    REFPGA_EXPECTS(clock.valid());
    REFPGA_EXPECTS(!cfg.writable || we.valid());

    // Input pin layout: [addr..., we, wdata...]
    const std::size_t inputs = addr.size() + (cfg.writable ? 1 + wdata.size() : 0);
    const CellId id =
        new_cell(CellKind::Bram, name, inputs, static_cast<std::size_t>(cfg.data_bits));
    cells_.back().clock = clock;
    cells_.back().bram_index = static_cast<std::uint32_t>(bram_configs_.size());
    bram_configs_.push_back(cfg);
    bram_configs_.back().init.resize(bram_configs_.back().depth(), 0);

    std::uint16_t pin = 0;
    for (const NetId a : addr) connect_input(id, pin++, a);
    if (cfg.writable) {
        connect_input(id, pin++, we);
        for (const NetId w : wdata) connect_input(id, pin++, w);
    }
    nets_[clock.value()].is_clock = true;

    std::vector<NetId> out;
    out.reserve(static_cast<std::size_t>(cfg.data_bits));
    for (int i = 0; i < cfg.data_bits; ++i)
        out.push_back(new_output(id, static_cast<std::uint16_t>(i), this->name(id),
                                 std::string(".do").append(std::to_string(i))));
    return out;
}

std::vector<NetId> Netlist::add_mult18(std::span<const NetId> a, std::span<const NetId> b,
                                       std::string_view name) {
    REFPGA_EXPECTS(!a.empty() && a.size() <= 18);
    REFPGA_EXPECTS(!b.empty() && b.size() <= 18);
    const CellId id = new_cell(CellKind::Mult18, name, a.size() + b.size(), 36);
    // Record the operand split so evaluators can reconstruct it.
    cells_.back().lut_mask = static_cast<std::uint16_t>(a.size());
    std::uint16_t pin = 0;
    for (const NetId n : a) connect_input(id, pin++, n);
    for (const NetId n : b) connect_input(id, pin++, n);

    std::vector<NetId> out;
    out.reserve(36);
    for (int i = 0; i < 36; ++i)
        out.push_back(new_output(id, static_cast<std::uint16_t>(i), this->name(id),
                                 std::string(".p").append(std::to_string(i))));
    return out;
}

NetId Netlist::add_gnd() {
    if (!gnd_net_.valid()) gnd_net_ = new_output(new_cell(CellKind::Gnd, "gnd", 0, 1), 0, "gnd");
    return gnd_net_;
}

NetId Netlist::add_vcc() {
    if (!vcc_net_.valid()) vcc_net_ = new_output(new_cell(CellKind::Vcc, "vcc", 0, 1), 0, "vcc");
    return vcc_net_;
}

std::vector<NetId> Netlist::add_input_port(const std::string& name, int width) {
    REFPGA_EXPECTS(width >= 1);
    REFPGA_EXPECTS(find_port(name) == nullptr);
    Port port;
    port.name = name;
    port.dir = PortDir::Input;
    for (int i = 0; i < width; ++i) {
        const CellId id =
            new_cell(CellKind::Inpad, name + "[" + std::to_string(i) + "]", 0, 1);
        port.pads.push_back(id);
        port.nets.push_back(new_output(id, 0, name, std::string("_").append(std::to_string(i))));
    }
    ports_.push_back(std::move(port));
    return ports_.back().nets;
}

void Netlist::add_output_port(const std::string& name, std::span<const NetId> bits) {
    REFPGA_EXPECTS(!bits.empty());
    REFPGA_EXPECTS(find_port(name) == nullptr);
    Port port;
    port.name = name;
    port.dir = PortDir::Output;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const CellId id =
            new_cell(CellKind::Outpad, name + "[" + std::to_string(i) + "]", 1, 0);
        connect_input(id, 0, bits[i]);
        port.pads.push_back(id);
        port.nets.push_back(bits[i]);
    }
    ports_.push_back(std::move(port));
}

PartitionId Netlist::add_partition(std::string name) {
    partition_names_.push_back(std::move(name));
    return PartitionId{static_cast<std::uint32_t>(partition_names_.size() - 1)};
}

void Netlist::set_current_partition(PartitionId p) {
    REFPGA_EXPECTS(p.value() < partition_names_.size());
    current_partition_ = p;
}

const Port* Netlist::find_port(const std::string& name) const {
    for (const Port& p : ports_)
        if (p.name == name) return &p;
    return nullptr;
}

const BramConfig& Netlist::bram_config(const Cell& cell) const {
    REFPGA_EXPECTS(cell.kind == CellKind::Bram);
    return bram_configs_[cell.bram_index];
}

BramConfig& Netlist::bram_config(const Cell& cell) {
    REFPGA_EXPECTS(cell.kind == CellKind::Bram);
    return bram_configs_[cell.bram_index];
}

std::vector<NetId> Netlist::clock_nets() const {
    std::vector<NetId> clocks;
    for (std::size_t i = 0; i < nets_.size(); ++i)
        if (nets_[i].is_clock) clocks.push_back(NetId{static_cast<std::uint32_t>(i)});
    return clocks;
}

}  // namespace refpga::netlist
