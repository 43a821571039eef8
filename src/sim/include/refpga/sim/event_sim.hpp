// Levelized event-driven simulator (the library's simulation engine).
//
// Bit-identical to the reference `Simulator` of the test-support library
// (see engine.hpp for the contract, tests/test_sim_diff.cpp for the
// differential harness that enforces it), with two ways to settle a tick:
//
//  - The event drain, for sparse ticks and every set_input. A cell is
//    (re)scheduled only when one of its input nets flips, into the queue of
//    its precomputed level (netlist::SimGraph). Levels are drained in
//    ascending order and every consumer sits at a strictly higher level than
//    its driver, so each dirty cell evaluates at most once per settle —
//    exactly the transitions the full sweep would produce, hence identical
//    toggle counts. Sequential cells are edge-scheduled: a FF/BRAM is
//    "armed" when any data input changes (or its BRAM contents are poked
//    externally), evaluated on the next matching clock edge, and skipped
//    otherwise. A skipped FF necessarily has D == Q (nothing changed since
//    it last latched), and a skipped BRAM's write would be idempotent, so
//    skipping is unobservable. All sequential cells start armed so the first
//    edge after reset latches everything, like the cycle engine's first tick.
//  - The level-order sweep, for dense ticks: every FF and BRAM on the ticked
//    clock is evaluated, their outputs are committed, and every
//    combinational cell is evaluated once in SimGraph level order — the
//    reference engine's tick, applied to settled state. Each write adds
//    (old ^ new) to the net's toggle count and appends the net to
//    changed_nets() at an index that advances by the same bit, so neither
//    the count nor the compaction branches on whether the net flipped. A
//    sweep schedules nothing, so afterwards every sequential cell is left
//    armed.
//
// Before each tick the engine picks the path from the previous tick's
// changed-net count against its combinational cell count (kDenseDivisor in
// event_sim.cpp, derived from the two paths' measured costs); no option
// selects it.
//
// Net values are one byte per net. Both paths read one array of
// combinational records in level order (truth table, four input nets and
// the output net of a LUT; a MULT18 is evaluated through the netlist's pin
// arena), flat FF and BRAM records, and one commit helper; the levelization
// is the netlist's shared SimGraph (Netlist::sim_graph). An unused LUT pin
// reads a sentinel net past the last one that always reads 0; an FF
// without a clock enable reads a second sentinel that always reads 1.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "refpga/netlist/netlist.hpp"
#include "refpga/netlist/simgraph.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/sim/engine.hpp"

namespace refpga::sim {

class EventSimulator : public SimEngine {
public:
    /// The netlist must pass DRC (no combinational loops). Initial state:
    /// reset-settled nets, FFs 0, BRAMs at init, toggle counters zeroed (the
    /// power-up settle is not counted — see engine.hpp).
    explicit EventSimulator(const netlist::Netlist& nl);

    [[nodiscard]] const netlist::Netlist& netlist() const override { return nl_; }
    /// The levelization the engine reads: its netlist's shared SimGraph.
    [[nodiscard]] const netlist::SimGraph& graph() const { return graph_; }

    void set_input(const std::string& port, std::uint64_t value) override;

    [[nodiscard]] std::uint64_t get_port(const std::string& port) const override;

    [[nodiscard]] bool net_value(netlist::NetId net) const override;

    void tick(netlist::NetId clock = netlist::NetId{}) override;

    [[nodiscard]] std::int64_t cycle_count() const override { return cycles_; }

    [[nodiscard]] const std::vector<netlist::NetId>& changed_nets() const override {
        return changed_;
    }

    [[nodiscard]] const std::vector<std::int64_t>& toggle_counts() const override {
        return toggles_;
    }

    [[nodiscard]] std::uint32_t bram_word(netlist::CellId bram,
                                          std::size_t addr) const override;
    void set_bram_word(netlist::CellId bram, std::size_t addr,
                       std::uint32_t value) override;

    /// Attach (or detach with nullptr) an observability recorder. Registers
    /// sim.{ticks,dense_ticks,evaluations}_total; each settle adds to them
    /// once, after it finishes, never per cell (evaluations counts
    /// combinational cell evaluations; a set_input settle adds only those).
    /// Simulation results are identical whether or not a recorder is
    /// attached. Non-owning; the recorder must outlive the engine or be
    /// detached first.
    void set_recorder(obs::Recorder* recorder);

private:
    /// A combinational cell, stored at its position in SimGraph level order.
    /// A LUT: input nets (unused pins: the zero sentinel), output net and
    /// truth table. A MULT18: `out` holds its cell index.
    struct CombRecord {
        std::uint32_t in[4];
        std::uint32_t out;
        std::uint16_t mask;
        bool lut;
    };
    struct FfRecord {
        std::uint32_t d;
        std::uint32_t ce;  ///< the one sentinel when the FF has no enable
        std::uint32_t q;
        std::uint32_t cell;
        netlist::NetId clock;
    };
    /// A BRAM port; its nets are the netlist's inputs (address, then write
    /// enable and write data when writable) and outputs of `cell`.
    struct BramRecord {
        std::uint32_t cell;
        std::uint32_t state;  ///< index into bram_state_ (the cell's bram_index)
        std::uint16_t addr_bits;
        std::uint16_t data_bits;
        bool writable;
        netlist::NetId clock;
    };
    /// A sequential output the edge computed, waiting for commit.
    struct NetWrite {
        std::uint32_t net;
        std::uint8_t value;
    };

    template <typename Write>
    void eval(const CombRecord& r, Write& write);
    template <typename Write>
    void commit(std::span<const NetWrite> writes, Write& write);
    std::span<const NetWrite> evaluate_sequential(netlist::NetId clock, bool every);
    [[nodiscard]] std::uint64_t bus(std::span<const netlist::NetId> nets) const;
    [[nodiscard]] std::int64_t mult_product(netlist::CellId cell) const;
    void set_net(std::uint32_t net, std::uint8_t value);
    void schedule(std::uint32_t cell);
    std::size_t drain_levels();
    std::size_t sweep_levels(std::span<const NetWrite> edge);
    void record(bool tick, bool dense, std::size_t evaluations);

    const netlist::Netlist& nl_;
    const netlist::SimGraph& graph_;
    std::vector<CombRecord> comb_;             ///< by position in level order
    std::vector<std::uint32_t> position_;      ///< per cell: its comb_ position
    std::vector<FfRecord> ffs_;
    std::vector<BramRecord> brams_;
    std::vector<std::uint8_t> values_;         ///< per net, then the 0 and 1 sentinels
    std::vector<std::vector<std::uint32_t>> level_queue_;  ///< pending positions
    std::vector<std::uint8_t> queued_;         ///< per position: already scheduled
    std::vector<std::uint8_t> seq_armed_;      ///< per cell: data input changed
    std::vector<std::vector<std::uint32_t>> bram_state_;   ///< by BramRecord::state
    std::vector<std::int64_t> toggles_;
    std::vector<netlist::NetId> changed_;
    std::vector<netlist::NetId> swept_;        ///< sweep's changed list, net_count slots
    std::vector<NetWrite> commits_;            ///< a slot per sequential output
    std::size_t last_tick_changed_ = 0;
    netlist::NetId default_clock_;
    std::int64_t cycles_ = 0;

    obs::Recorder* recorder_ = nullptr;
    obs::MetricId ticks_metric_;
    obs::MetricId dense_ticks_metric_;
    obs::MetricId evaluations_metric_;
};

}  // namespace refpga::sim
