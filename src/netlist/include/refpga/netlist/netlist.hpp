// Technology-mapped netlist for the Spartan-3 fabric model.
//
// Cells are the primitives the fabric offers (4-input LUTs, flip-flops,
// 18-kbit BRAMs, MULT18 multipliers, pads, constants); nets connect exactly
// one driver pin to any number of sink pins. The netlist is the common
// exchange format between the generators (app), the simulator (sim), the
// placer/router (par) and the power estimator (power).
//
// Storage is flat. Cells and nets are fixed-size records. Each cell's input
// nets, then its output nets, sit at the cell's offset in one pin arena;
// every cell and net name lives in one character arena. Each net's sink pins
// form a CSR array in connection order, derived from the records when a
// reader first asks after a change, and so does the netlist's one SimGraph.
// Readers get spans and string_views through the accessors. Any structural
// change (an add_* call or rewire) may grow an arena or drop the derived
// arrays, so it invalidates every span, view and SimGraph reference taken
// before it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "refpga/common/contracts.hpp"
#include "refpga/common/strong_id.hpp"

namespace refpga::netlist {

struct CellIdTag {};
struct NetIdTag {};
struct PartitionIdTag {};
using CellId = StrongId<CellIdTag>;
using NetId = StrongId<NetIdTag>;
using PartitionId = StrongId<PartitionIdTag>;

class SimGraph;

enum class CellKind : std::uint8_t {
    Lut,     ///< 1..4-input LUT with 16-bit truth table
    Ff,      ///< D flip-flop with optional clock enable
    Bram,    ///< 18-kbit block RAM, single synchronous read/write port
    Mult18,  ///< combinational 18x18 signed multiplier
    Inpad,   ///< top-level input (drives one net)
    Outpad,  ///< top-level output (observes one net)
    Gnd,     ///< constant 0 driver
    Vcc,     ///< constant 1 driver
};

[[nodiscard]] const char* cell_kind_name(CellKind kind);

/// Reference to one pin of a cell. For sinks `pin` indexes the cell's input
/// list; for drivers it indexes the cell's output list.
struct PinRef {
    CellId cell;
    std::uint16_t pin = 0;

    friend constexpr bool operator==(const PinRef&, const PinRef&) = default;
};

/// Block-RAM configuration and initial contents.
struct BramConfig {
    int addr_bits = 10;
    int data_bits = 18;
    bool writable = false;
    std::vector<std::uint32_t> init;  ///< word-per-address initial contents

    [[nodiscard]] std::size_t depth() const { return std::size_t{1} << addr_bits; }
};

/// A cell's record. Its pins and name are Netlist::inputs/outputs/name.
struct Cell {
    CellKind kind = CellKind::Lut;
    PartitionId partition;          ///< which floorplan partition the cell belongs to
    std::uint16_t lut_mask = 0;     ///< truth table, LUT cells only
    NetId clock;                    ///< FF/BRAM clock net (invalid for others)
    std::uint32_t bram_index = 0;   ///< index into Netlist bram configs, BRAM only

    [[nodiscard]] bool sequential() const {
        return kind == CellKind::Ff || kind == CellKind::Bram;
    }

private:
    friend class Netlist;
    std::uint32_t pins_ = 0;        ///< first input in the pin arena
    std::uint16_t inputs_ = 0;      ///< data inputs (FF: [D] or [D, CE])
    std::uint16_t outputs_ = 0;     ///< driven nets, after the inputs
    std::uint32_t name_ = 0;        ///< offset in the name arena
    std::uint32_t name_size_ = 0;
};

/// A net's record. Its sinks and name are Netlist::sinks/name.
struct Net {
    PinRef driver;                ///< invalid cell id until a driver connects
    bool is_clock = false;        ///< marked when any FF/BRAM uses it as clock

    [[nodiscard]] bool driven() const { return driver.cell.valid(); }
    [[nodiscard]] std::size_t fanout() const { return fanout_; }

private:
    friend class Netlist;
    std::uint32_t fanout_ = 0;    ///< sink count, kept as pins connect
    std::uint32_t name_ = 0;
    std::uint32_t name_size_ = 0;
};

enum class PortDir : std::uint8_t { Input, Output };

/// Top-level port: a named bus of pad cells.
struct Port {
    std::string name;
    PortDir dir = PortDir::Input;
    std::vector<CellId> pads;  ///< one pad cell per bit, LSB first
    std::vector<NetId> nets;   ///< the nets at the fabric side of the pads
};

class Netlist {
public:
    Netlist();

    // --- construction -------------------------------------------------------

    NetId add_net(std::string_view name);

    /// LUT with `inputs.size()` inputs (1..4). Bit i of `mask` is the output
    /// for input vector i (inputs[0] = LSB of the index). Returns output net.
    NetId add_lut(std::uint16_t mask, std::span<const NetId> inputs, std::string_view name);

    /// D flip-flop. `ce` may be invalid (always enabled). Returns Q net.
    NetId add_ff(NetId d, NetId clock, NetId ce, std::string_view name);

    /// Synchronous BRAM port: reads cfg.data_bits at `addr` every clock; when
    /// writable and `we`=1, writes `wdata` first. Returns the read-data nets.
    std::vector<NetId> add_bram(const BramConfig& cfg, std::span<const NetId> addr,
                                NetId clock, NetId we, std::span<const NetId> wdata,
                                std::string_view name);

    /// 18x18 signed multiplier; a/b are sign-extended to 18 bits. Returns 36
    /// product nets.
    std::vector<NetId> add_mult18(std::span<const NetId> a, std::span<const NetId> b,
                                  std::string_view name);

    NetId add_gnd();
    NetId add_vcc();

    std::vector<NetId> add_input_port(const std::string& name, int width);
    void add_output_port(const std::string& name, std::span<const NetId> bits);

    PartitionId add_partition(std::string name);
    void set_current_partition(PartitionId p);
    [[nodiscard]] PartitionId current_partition() const { return current_partition_; }

    /// Moves input pin `sink` from its net to `net`, where it joins after the
    /// net's earlier sinks. Builder::feedback_reg splices D pins with it.
    void rewire(PinRef sink, NetId net);

    // --- access --------------------------------------------------------------

    [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
    [[nodiscard]] std::size_t net_count() const { return nets_.size(); }

    [[nodiscard]] const Cell& cell(CellId id) const {
        REFPGA_EXPECTS(id.value() < cells_.size());
        return cells_[id.value()];
    }
    [[nodiscard]] const Net& net(NetId id) const {
        REFPGA_EXPECTS(id.value() < nets_.size());
        return nets_[id.value()];
    }
    [[nodiscard]] std::span<const NetId> inputs(CellId id) const {
        return {pins_.data() + cell(id).pins_, cell(id).inputs_};
    }
    [[nodiscard]] std::span<const NetId> outputs(CellId id) const {
        return {pins_.data() + cell(id).pins_ + cell(id).inputs_, cell(id).outputs_};
    }
    /// Sink pins of `id` in connection order.
    [[nodiscard]] std::span<const PinRef> sinks(NetId id) const {
        const SinkIndex& index = sink_index();
        return {index.pins.data() + index.begin[id.value()], net(id).fanout_};
    }
    [[nodiscard]] std::string_view name(CellId id) const {
        return {names_.data() + cell(id).name_, cell(id).name_size_};
    }
    [[nodiscard]] std::string_view name(NetId id) const {
        return {names_.data() + net(id).name_, net(id).name_size_};
    }

    /// The netlist's levelization, built on first use and shared by every
    /// reader (the simulator, timing analysis, the reallocator).
    [[nodiscard]] const SimGraph& sim_graph() const;

    [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
    [[nodiscard]] const std::vector<Port>& ports() const { return ports_; }
    [[nodiscard]] const Port* find_port(const std::string& name) const;

    [[nodiscard]] const std::vector<std::string>& partitions() const { return partition_names_; }
    [[nodiscard]] const BramConfig& bram_config(const Cell& cell) const;
    [[nodiscard]] BramConfig& bram_config(const Cell& cell);

    /// All nets used as clocks by at least one sequential cell.
    [[nodiscard]] std::vector<NetId> clock_nets() const;

private:
    /// Read-side state derived from the records on first use after a change,
    /// once even under concurrent readers. A copy starts empty; a move
    /// carries the state along. (A netlist is never assigned.)
    template <typename T>
    class Derived {
    public:
        Derived() = default;
        Derived(const Derived&) {}
        Derived(Derived&& o) noexcept : value_(std::move(o.value_)), ready_(value_.get()) {
            o.reset();
        }
        Derived& operator=(const Derived&) = delete;
        template <typename Build>
        const T& get(const Build& build) const {
            if (const T* v = ready_.load()) return *v;
            const std::lock_guard lock(mutex_);
            if (value_ == nullptr) ready_.store((value_ = build()).get());
            return *value_;
        }
        /// Writers hold the netlist exclusively, so no reader races this;
        /// while nothing is built (all through construction) it stores nothing.
        void reset() {
            if (ready_.load() != nullptr) ready_.store(nullptr);
            value_.reset();
        }

    private:
        mutable std::mutex mutex_;
        mutable std::shared_ptr<const T> value_;
        mutable std::atomic<const T*> ready_{nullptr};
    };

    struct SinkIndex {
        std::vector<std::uint32_t> begin;  ///< per net: its first sink in `pins`
        std::vector<PinRef> pins;
    };

    const SinkIndex& sink_index() const {
        return sink_index_.get([this] { return make_sink_index(); });
    }
    std::shared_ptr<const SinkIndex> make_sink_index() const;
    CellId new_cell(CellKind kind, std::string_view name, std::size_t inputs,
                    std::size_t outputs);
    void connect_input(CellId cell, std::uint16_t pin, NetId net);
    NetId new_output(CellId cell, std::uint16_t pin, std::string_view name,
                     std::string_view suffix = {});
    void intern(std::string_view name, std::string_view suffix, std::uint32_t& offset,
                std::uint32_t& size);
    void changed() {
        sink_index_.reset();
        sim_graph_.reset();
    }

    std::vector<Cell> cells_;
    std::vector<Net> nets_;
    std::vector<NetId> pins_;       ///< per cell: its inputs, then its outputs
    std::vector<PinRef> sink_log_;  ///< every sink pin in connection order
                                    ///< (a rewired pin's old entry is cleared)
    std::vector<std::uint32_t> log_entry_;  ///< per pins_ slot: its sink_log_ entry
    std::string names_;             ///< every cell and net name
    std::vector<Port> ports_;
    std::vector<BramConfig> bram_configs_;
    std::vector<std::string> partition_names_;
    PartitionId current_partition_;
    NetId gnd_net_;
    NetId vcc_net_;
    Derived<SinkIndex> sink_index_;
    Derived<SimGraph> sim_graph_;
};

}  // namespace refpga::netlist
