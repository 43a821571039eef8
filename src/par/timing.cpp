#include "refpga/par/timing.hpp"

#include <algorithm>

#include "refpga/common/contracts.hpp"
#include "refpga/netlist/simgraph.hpp"

namespace refpga::par {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

TimingReport analyze_timing(const RoutedDesign& routed, const CellDelays& delays) {
    const auto& nl = routed.placement().nl();

    auto cell_delay = [&](const Cell& c) {
        switch (c.kind) {
            case CellKind::Lut: return delays.lut_ps;
            case CellKind::Mult18: return delays.mult_ps;
            default: return 0.0;
        }
    };
    auto launch_delay = [&](const Cell& c) {
        switch (c.kind) {
            case CellKind::Ff: return delays.ff_clk_to_q_ps;
            case CellKind::Bram: return delays.bram_clk_to_q_ps;
            default: return 0.0;  // pads, constants
        }
    };

    // Arrival time at each cell output. One forward pass: launch cells first
    // (cell-index order), then the combinational cells in topological order,
    // so every cell's arrival is final before it propagates. The netlist's
    // shared SimGraph levelization throws on a combinational loop (DRC-clean
    // designs have none).
    std::vector<double> arrival(nl.cell_count(), -1.0);
    std::vector<CellId> pred(nl.cell_count(), CellId{});

    // Connection delay of a net's sink_idx-th sink: a routed net has one
    // connection per sink, in sink order; an unrouted or dedicated net has
    // none and costs the pin delay alone.
    auto net_sink_delay = [&](NetId net, std::size_t sink_idx) {
        const NetRoute r = routed.route(net);
        return sink_idx < r.sinks.size() ? r.sinks[sink_idx].delay_ps
                                         : RoutedDesign::kPinDelayPs;
    };

    double critical = 0.0;
    // The endpoint's predecessor is kept apart from `pred`: an endpoint FF
    // or BRAM also launches paths of its own, and the walk back from the
    // critical endpoint must stop at the launch cell.
    CellId critical_end;
    CellId critical_pred;

    auto propagate = [&](std::uint32_t ci) {
        if (arrival[ci] < 0.0) return;  // never reached
        for (const NetId out : nl.outputs(CellId{ci})) {
            if (nl.net(out).is_clock) continue;
            const std::span<const netlist::PinRef> sinks = nl.sinks(out);
            for (std::size_t si = 0; si < sinks.size(); ++si) {
                const auto& sink = sinks[si];
                const Cell& sc = nl.cell(sink.cell);
                const double wire = net_sink_delay(out, si);
                double t = arrival[ci] + wire;
                if (sc.sequential() || sc.kind == CellKind::Outpad) {
                    // Path endpoint: add setup for FFs.
                    const double total =
                        t + (sc.kind == CellKind::Ff ? delays.ff_setup_ps : 0.0);
                    if (total > critical) {
                        critical = total;
                        critical_end = sink.cell;
                        critical_pred = CellId{ci};
                    }
                    continue;
                }
                t += cell_delay(sc);
                if (t > arrival[sink.cell.value()]) {
                    arrival[sink.cell.value()] = t;
                    pred[sink.cell.value()] = CellId{ci};
                }
            }
        }
    };

    for (std::uint32_t i = 0; i < nl.cell_count(); ++i) {
        const Cell& c = nl.cell(CellId{i});
        if (c.sequential() || c.kind == CellKind::Inpad || c.kind == CellKind::Gnd ||
            c.kind == CellKind::Vcc) {
            arrival[i] = launch_delay(c);
            propagate(i);
        }
    }
    for (const std::uint32_t ci : nl.sim_graph().comb_order()) propagate(ci);

    TimingReport report;
    report.critical_path_ps = critical;
    // Walk back the critical path: endpoint, then combinational cells to the
    // launch cell (whose `pred` is unset).
    if (critical_end.valid()) {
        report.critical_cells.push_back(critical_end);
        for (CellId cur = critical_pred; cur.valid(); cur = pred[cur.value()])
            report.critical_cells.push_back(cur);
    }
    std::reverse(report.critical_cells.begin(), report.critical_cells.end());
    return report;
}

std::vector<bool> critical_cell_mask(const TimingReport& report,
                                     std::size_t cell_count) {
    std::vector<bool> mask(cell_count, false);
    for (const CellId cell : report.critical_cells)
        if (cell.valid() && cell.value() < cell_count) mask[cell.value()] = true;
    return mask;
}

}  // namespace refpga::par
