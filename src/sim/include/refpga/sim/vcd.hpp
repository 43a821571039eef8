// Value Change Dump (IEEE 1364 §18) writing and parsing.
//
// The paper's §4.3 flow is: post-PAR simulation -> VCD file -> XPower, which
// derives per-net switching rates. Here the VCD is an export artifact: the
// simulator writes a real dump, and parsing it back recovers per-signal
// toggle counts equal to the simulation's own toggle counters, which are
// what feed the power estimator.
//
// Both directions stream in constant memory: the writer holds only the last
// emitted value per watched signal and appends to the ostream as samples
// arrive; the parser is a single pass over the token stream whose state is
// one last-value record per declared variable — neither ever buffers the
// dump, so arbitrarily long simulations can round-trip through a pipe.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "refpga/netlist/netlist.hpp"
#include "refpga/sim/engine.hpp"

namespace refpga::sim {

class VcdWriter {
public:
    /// Watches `nets` of the engine's netlist as scalar variables. Works
    /// identically over any engine (output depends only on net values at
    /// sample times, so the dual-engine parity contract makes the bytes
    /// engine-independent). Header is emitted immediately; timescale is 1 ps.
    VcdWriter(std::ostream& os, const SimEngine& sim, std::vector<netlist::NetId> nets);

    /// Emits value changes for watched variables at absolute time `time_ps`.
    /// Times must be strictly increasing.
    void sample(std::int64_t time_ps);

private:
    [[nodiscard]] static std::string code_for(std::size_t index);

    std::ostream& os_;
    const SimEngine& sim_;
    std::vector<netlist::NetId> nets_;
    std::vector<std::string> codes_;
    std::vector<std::int8_t> last_;  ///< -1 = not yet dumped
    std::int64_t last_time_ = -1;
};

/// Per-signal toggle statistics recovered from a VCD file.
struct VcdActivity {
    std::int64_t duration_ps = 0;
    std::map<std::string, std::int64_t, std::less<>> toggles;  ///< signal name -> transitions
};

/// Malformed VCD input. The §4.3 flow feeds externally produced dumps into
/// the power estimator, so the parser rejects broken files loudly instead of
/// silently producing zero activity (which would read as "no dynamic power").
class VcdParseError : public std::runtime_error {
public:
    explicit VcdParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses a VCD stream: VcdWriter's scalar dumps, or an outside tool's dump
/// with vector variables. Scalar changes accumulate toggles under the
/// declared name. Vector (`b...`) changes on variables declared with
/// width > 1 accumulate per-bit toggles under `name[i]`
/// (i = 0 is the LSB, the rightmost binary digit; short values are
/// left-extended per IEEE 1364). Vector changes on width-1 variables are
/// skipped after validating the identifier, matching pre-vector behaviour.
/// Throws VcdParseError on truncated declarations or directives, value
/// changes for undeclared identifiers, vector values wider than the declared
/// width, malformed or non-increasing timestamps, value changes before the
/// first timestamp, and files with declarations but no value-change section
/// at all.
[[nodiscard]] VcdActivity parse_vcd(std::istream& is);

}  // namespace refpga::sim
