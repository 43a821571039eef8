// Measurement-system orchestration: the three implementation variants the
// paper walks through, a full-cycle scheduler (Fig. 4), and the structural
// netlist used for floorplanning, Table 1 and the device-fit study.
//
// Variants:
//   Software       — original algorithms on the MicroBlaze (first prototype)
//   MonolithicHw   — all data-processing modules resident in fabric
//   ReconfiguredHw — one reconfigurable slot, modules loaded in sequence via
//                    the configuration port (the paper's final system)
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "refpga/analog/frontend.hpp"
#include "refpga/analog/sample_block.hpp"
#include "refpga/app/golden.hpp"
#include "refpga/app/hw_modules.hpp"
#include "refpga/app/params.hpp"
#include "refpga/app/software.hpp"
#include "refpga/fault/fault.hpp"
#include "refpga/netlist/netlist.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/reconfig/controller.hpp"
#include "refpga/reconfig/scrubber.hpp"
#include "refpga/soc/fabric_macros.hpp"

namespace refpga::app {

enum class SystemVariant { Software, MonolithicHw, ReconfiguredHw };

[[nodiscard]] const char* variant_name(SystemVariant variant);

struct SystemOptions {
    SystemVariant variant = SystemVariant::ReconfiguredHw;
    AppParams params;
    SoftwareConfig software;                       ///< Software variant only
    reconfig::ConfigPortSpec port;                 ///< ReconfiguredHw only
    fabric::PartName part = fabric::PartName::XC3S400;
    /// Tank output noise per channel (plant condition, swept by campaigns).
    double tank_noise_rms_v = 1e-3;
    /// Modulator ticks advanced per front-end block in the sampling phase;
    /// must be positive (ContractViolation otherwise). Every value yields
    /// bit-identical PCM, cycle reports and campaign reports (pinned by
    /// tests/test_frontend_stream); larger blocks amortize per-call state
    /// marshalling over more ticks.
    int stream_block_ticks = 4096;

    /// Fault environment (refpga::fault). The default all-zero spec injects
    /// nothing and the results stay bit-identical to the fault-free system;
    /// verify-after-write readback on loads is armed only when the spec
    /// injects faults, so the paper's Fig. 4 numbers are untouched.
    fault::FaultSpec fault;
    /// Extra load attempts when verification or the flash fetch fails.
    int load_max_retries = 2;
    /// Fraction of the cycle's idle window donated to readback scrubbing
    /// (Fig. 4 leaves ~29 ms idle per 100 ms cycle on the JCAP system).
    double scrub_idle_fraction = 0.5;

    /// Observability sink (refpga::obs); the system's obs toggle. nullptr —
    /// the default — leaves every instrumentation site as a single null
    /// check (bench_obs_overhead gates this at <= 2% on the streaming
    /// path). When set, run_cycle records cycle.* metrics and phase spans
    /// and propagates the recorder to the front end and the reconfiguration
    /// controller. Non-owning: the recorder must outlive the system; safe
    /// to share one recorder across systems (all sinks are thread-safe).
    obs::Recorder* recorder = nullptr;

    SystemOptions();
};

/// One scheduled activity within a measurement cycle (a Fig. 4 row).
struct CyclePhase {
    std::string name;
    double start_s = 0.0;
    double duration_s = 0.0;
};

struct CycleReport {
    golden::CycleResult result;
    double level = 0.0;           ///< filtered level in [0, 1]
    double capacitance_pf = 0.0;  ///< filtered capacitance estimate
    std::vector<CyclePhase> phases;
    double sampling_s = 0.0;
    double processing_s = 0.0;
    double reconfig_s = 0.0;
    double scrub_s = 0.0;   ///< readback scrubbing in the idle window
    double repair_s = 0.0;  ///< column rewrites for detected upsets

    // Self-healing outcome of this cycle.
    int upsets_detected = 0;
    int columns_repaired = 0;
    bool plausibility_rejected = false;  ///< level held at last-good value
    bool fallback = false;  ///< served by the resident software path
    bool fabric_corrupted = false;  ///< processed while columns were bad

    [[nodiscard]] double busy_s() const {
        return sampling_s + processing_s + reconfig_s + scrub_s + repair_s;
    }
};

/// Thread-safety: a MeasurementSystem instance is confined to one thread at
/// a time, but instances share no mutable state — distinct instances may run
/// on distinct threads concurrently (refpga::fleet relies on this).
class MeasurementSystem {
public:
    /// Throws refpga::ContractViolation when options.params fails
    /// AppParams::validate() or another option is out of range.
    explicit MeasurementSystem(SystemOptions options, std::uint64_t noise_seed = 7);

    // The configuration memory and scrubber hold references into this
    // object, so it is pinned to its construction address.
    MeasurementSystem(const MeasurementSystem&) = delete;
    MeasurementSystem& operator=(const MeasurementSystem&) = delete;

    [[nodiscard]] const SystemOptions& options() const { return options_; }

    /// Ground-truth tank level for the next cycles.
    void set_true_level(double level);
    [[nodiscard]] double true_level() const;

    /// Runs one full measurement cycle (sampling -> processing [-> reconfig
    /// between stages]) and returns the report. The sample window streams
    /// through the system's own sample block, grown in the first cycle and
    /// reused by every later one.
    CycleReport run_cycle();

    [[nodiscard]] const reconfig::ReconfigController& controller() const {
        return controller_;
    }
    [[nodiscard]] const fault::FaultStats& fault_stats() const { return stats_; }
    [[nodiscard]] long cycles_run() const { return cycles_run_; }

private:
    void collect_window(std::vector<std::int32_t>& meas, std::vector<std::int32_t>& ref);
    void inject_upsets_until(double t_s);
    void apply_glitch(const fault::Glitch& glitch, std::vector<std::int32_t>& meas,
                      std::vector<std::int32_t>& ref);
    [[nodiscard]] double level_candidate(std::uint32_t cap_pf_q4) const;
    /// The resident firmware, built on first use (Software variant, or the
    /// first fallback cycle).
    [[nodiscard]] SoftCore& soft_core();
    [[nodiscard]] double fallback_processing_s(
        const std::vector<std::int32_t>& meas, const std::vector<std::int32_t>& ref);
    void run_scrub_phase(CycleReport& report, double cycle_start_s, double& t);

    SystemOptions options_;  // params checked by AppParams::validate()
    analog::FrontEnd frontend_;
    SinusGenModel sinusgen_;
    golden::Tables tables_;  ///< the golden stages' tables, built once
    golden::FilterState filter_;
    fabric::Device device_;
    reconfig::ReconfigController controller_;
    reconfig::ConfigMemory config_mem_;  // references device_
    reconfig::Scrubber scrubber_;        // references config_mem_
    fault::FaultPlan plan_;
    fault::FaultStats stats_;
    analog::SampleBlock block_;  ///< run_cycle()'s streaming buffers, no state
    long cycles_run_ = 0;

    // Self-healing state.
    std::map<int, double> pending_upsets_;  ///< column -> earliest hit time
    int scrub_cursor_ = 0;
    bool have_last_good_ = false;
    double last_good_candidate_ = 0.0;
    golden::CapacityResult last_good_cap_{};
    golden::FilterState::Output last_good_level_{};
    int reject_streak_ = 0;
    std::optional<double> fallback_s_;  ///< cached software-path timing
    std::optional<SoftCore> soft_core_;

    // Observability ids, interned once at construction (empty/invalid when
    // options_.recorder is null).
    struct ObsIds {
        obs::MetricId cycles, fallback, rejected, corrupted, upsets, repairs;
        obs::MetricId model_sampling_s, model_processing_s, model_reconfig_s,
            model_scrub_s;
        obs::MetricId wall, sample_wall, swap_wall;
        std::uint32_t span_cycle = 0, span_sample = 0, span_process = 0,
                      span_swap = 0;
    } obs_ids_;
};

/// Structural netlist of the complete system, partitioned into the static
/// area and the three reconfigurable modules, with all boundary crossings
/// going through bus macros.
struct SystemNetlist {
    netlist::Netlist nl;
    netlist::PartitionId static_part;
    netlist::PartitionId amp_part;
    netlist::PartitionId cap_part;
    netlist::PartitionId filt_part;
};

struct SystemNetlistOptions {
    AppParams params;
    soc::SoftIpBudgets soft_ip;  ///< static-area soft IP slice budgets
    bool include_soft_ip = true;
    /// Which reconfigurable modules are resident. The reconfigured system
    /// never hosts more than one at a time; the worst case resident set is
    /// {amp_phase} (the largest). Omitted modules are replaced by tied-off
    /// result staging so the netlist stays DRC-clean.
    bool include_amp = true;
    bool include_capacity = true;
    bool include_filter = true;
};

[[nodiscard]] SystemNetlist build_system_netlist(const SystemNetlistOptions& options = {});

}  // namespace refpga::app
