#include "refpga/netlist/drc.hpp"

#include <cstdint>
#include <span>

namespace refpga::netlist {

const char* drc_issue_name(DrcIssue::Kind kind) {
    switch (kind) {
        case DrcIssue::Kind::UndrivenNet: return "undriven-net";
        case DrcIssue::Kind::DanglingInput: return "dangling-input";
        case DrcIssue::Kind::CombinationalLoop: return "combinational-loop";
        case DrcIssue::Kind::ClockUsedAsData: return "clock-used-as-data";
    }
    return "?";
}

namespace {

// Detects a cycle through combinational cells with an iterative DFS.
bool has_combinational_loop(const Netlist& nl, std::string* where) {
    enum class Mark : std::uint8_t { White, Grey, Black };
    std::vector<Mark> mark(nl.cell_count(), Mark::White);

    struct Frame {
        std::uint32_t cell;
        std::size_t next_out = 0;   ///< next output net to expand
        std::size_t next_sink = 0;  ///< next sink within that net
    };

    std::vector<Frame> stack;
    for (std::uint32_t start = 0; start < nl.cell_count(); ++start) {
        if (mark[start] != Mark::White) continue;
        if (nl.cell(CellId{start}).sequential()) continue;

        stack.push_back({start});
        mark[start] = Mark::Grey;
        while (!stack.empty()) {
            Frame& f = stack.back();
            const std::span<const NetId> outs = nl.outputs(CellId{f.cell});
            bool descended = false;
            while (f.next_out < outs.size()) {
                const std::span<const PinRef> sinks = nl.sinks(outs[f.next_out]);
                if (f.next_sink >= sinks.size()) {
                    ++f.next_out;
                    f.next_sink = 0;
                    continue;
                }
                const PinRef sink = sinks[f.next_sink++];
                if (nl.cell(sink.cell).sequential()) continue;  // FF/BRAM breaks the cycle
                const auto v = sink.cell.value();
                if (mark[v] == Mark::Grey) {
                    if (where) *where = nl.name(sink.cell);
                    return true;
                }
                if (mark[v] == Mark::White) {
                    mark[v] = Mark::Grey;
                    stack.push_back({v});
                    descended = true;
                    break;
                }
            }
            if (!descended && stack.back().next_out >= outs.size()) {
                mark[f.cell] = Mark::Black;
                stack.pop_back();
            }
        }
    }
    return false;
}

}  // namespace

std::vector<DrcIssue> run_drc(const Netlist& nl) {
    std::vector<DrcIssue> issues;

    for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
        const NetId id{i};
        const Net& n = nl.net(id);
        if (!n.driven() && n.fanout() > 0)
            issues.push_back({DrcIssue::Kind::UndrivenNet, std::string(nl.name(id))});
        if (n.is_clock && n.driven()) {
            // A clock may fan out to data inputs only through explicit use;
            // flag cases where the same net is both a clock and a LUT input.
            for (const PinRef& sink : nl.sinks(id)) {
                if (nl.cell(sink.cell).kind == CellKind::Lut)
                    issues.push_back({DrcIssue::Kind::ClockUsedAsData,
                                      std::string(nl.name(id)) + " -> " +
                                          std::string(nl.name(sink.cell))});
            }
        }
    }

    for (std::uint32_t i = 0; i < nl.cell_count(); ++i) {
        const CellId id{i};
        const std::span<const NetId> inputs = nl.inputs(id);
        for (std::size_t pin = 0; pin < inputs.size(); ++pin) {
            // FF pin 1 (CE) is optional; all other pins must be wired.
            if (!inputs[pin].valid() && !(nl.cell(id).kind == CellKind::Ff && pin == 1))
                issues.push_back({DrcIssue::Kind::DanglingInput,
                                  std::string(nl.name(id)) + " pin " + std::to_string(pin)});
        }
    }

    std::string where;
    if (has_combinational_loop(nl, &where))
        issues.push_back({DrcIssue::Kind::CombinationalLoop, where});

    return issues;
}

void require_clean(const Netlist& nl) {
    const auto issues = run_drc(nl);
    if (!issues.empty())
        throw ContractViolation(std::string("netlist DRC failed: ") +
                                drc_issue_name(issues.front().kind) + " (" +
                                issues.front().detail + "), " +
                                std::to_string(issues.size()) + " issue(s) total");
}

}  // namespace refpga::netlist
