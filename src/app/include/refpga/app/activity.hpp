// Switching-activity extraction for the measurement system's netlists.
//
// One library home for the stimulus that every consumer of §4.3 activity
// uses (benches, campaigns, examples): drive the system's known ports with
// the deterministic reference pattern on the event-driven engine and return
// per-net toggle rates read from its toggle counters. The paper's XPower
// flow (post-PAR simulation -> VCD -> parse) is available as an export: a
// caller-supplied stream receives the dump as it is written, and parsing it
// back yields exactly the returned activity. The dump is never a second way
// of computing it.
#pragma once

#include <ostream>

#include "refpga/netlist/netlist.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/sim/activity.hpp"

namespace refpga::app {

struct ActivityOptions {
    int cycles = 256;
    /// When set, every net's value changes are written to this stream as a
    /// VCD (1 ps timescale, first sample at t = 0 when the counting window
    /// opens, one sample per clock period). Non-owning.
    std::ostream* vcd = nullptr;
    /// Observability sink (refpga::obs), attached to the engine with
    /// EventSimulator::set_recorder: the run adds its settles to
    /// sim.{ticks,dense_ticks,evaluations}_total. The activity is identical
    /// whether or not a recorder is attached. Non-owning.
    obs::Recorder* recorder = nullptr;
};

/// Stimulates `nl` for `opts.cycles` clock cycles with the deterministic
/// system pattern and returns per-net activity at `clock_hz`.
///
/// tick_16mhz and adc_valid are held at 1 and adc_meas/adc_ref are driven
/// from Rng(2024) each cycle; ports absent from the netlist are skipped, so
/// this also works for plain cores. The counting window opens after the held
/// inputs are driven, so their edges are not activity: a net's rate is its
/// toggles in the window divided by (cycles / clock_hz).
[[nodiscard]] sim::ActivityMap system_activity(const netlist::Netlist& nl,
                                               double clock_hz,
                                               const ActivityOptions& opts = {});

}  // namespace refpga::app
