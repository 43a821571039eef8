#include "refpga/par/timing_reference.hpp"

#include <algorithm>

namespace refpga::par {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;

TimingReport analyze_timing_reference(const RoutedDesign& routed,
                                      const CellDelays& delays) {
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

    // Arrival time at each cell output.
    std::vector<double> arrival(nl.cell_count(), -1.0);
    std::vector<CellId> pred(nl.cell_count(), CellId{});

    // Connection delay from a routed net to one sink. Routes keep sinks in
    // netlist order, so the indexed probe hits almost always; the scan is a
    // fallback for partially re-routed nets.
    auto net_sink_delay = [&](NetId net, const netlist::PinRef& sink,
                              std::size_t sink_idx) {
        const NetRoute r = routed.route(net);
        if (sink_idx < r.sinks.size() && r.sinks[sink_idx].sink == sink)
            return r.sinks[sink_idx].delay_ps;
        for (const auto& s : r.sinks)
            if (s.sink == sink) return s.delay_ps;
        return RoutedDesign::kPinDelayPs;  // unrouted/dedicated nets
    };

    // Iterate to fixpoint: every improved arrival is pushed again, so a cell
    // on a deep chain may be relaxed many times.
    std::vector<std::uint32_t> worklist;
    for (std::uint32_t i = 0; i < nl.cell_count(); ++i) {
        const Cell& c = nl.cell(CellId{i});
        if (c.sequential() || c.kind == CellKind::Inpad || c.kind == CellKind::Gnd ||
            c.kind == CellKind::Vcc) {
            arrival[i] = launch_delay(c);
            worklist.push_back(i);
        }
    }

    double critical = 0.0;
    CellId critical_end;

    while (!worklist.empty()) {
        const std::uint32_t ci = worklist.back();
        worklist.pop_back();
        for (const NetId out : nl.outputs(CellId{ci})) {
            if (nl.net(out).is_clock) continue;
            const auto sinks = nl.sinks(out);
            for (std::size_t si = 0; si < sinks.size(); ++si) {
                const auto& sink = sinks[si];
                const Cell& sc = nl.cell(sink.cell);
                const double wire = net_sink_delay(out, sink, si);
                double t = arrival[ci] + wire;
                if (sc.sequential() || sc.kind == CellKind::Outpad) {
                    // Path endpoint: add setup for FFs.
                    const double total =
                        t + (sc.kind == CellKind::Ff ? delays.ff_setup_ps : 0.0);
                    if (total > critical) {
                        critical = total;
                        critical_end = sink.cell;
                        pred[sink.cell.value()] = CellId{ci};
                    }
                    continue;
                }
                t += cell_delay(sc);
                if (t > arrival[sink.cell.value()]) {
                    arrival[sink.cell.value()] = t;
                    pred[sink.cell.value()] = CellId{ci};
                    worklist.push_back(sink.cell.value());
                }
            }
        }
    }

    TimingReport report;
    report.critical_path_ps = critical;
    // Walk back the critical path.
    CellId cur = critical_end;
    while (cur.valid()) {
        report.critical_cells.push_back(cur);
        cur = pred[cur.value()];
        if (report.critical_cells.size() > nl.cell_count()) break;  // safety
    }
    std::reverse(report.critical_cells.begin(), report.critical_cells.end());
    return report;
}

}  // namespace refpga::par
