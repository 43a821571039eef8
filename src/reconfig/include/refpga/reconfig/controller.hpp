// Run-time reconfiguration controller.
//
// Mirrors the paper's architecture (Fig. 2): a controller in the static area
// fetches partial bitstreams from external low-power memory and writes them
// to the configuration port; reconfigurable modules are loaded on demand into
// a floorplan slot. The controller keeps a ledger of every reconfiguration's
// time and energy so the measurement-cycle schedule (Fig. 4) can account for
// the overhead the paper warns about.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "refpga/fault/fault.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/reconfig/bitstream.hpp"
#include "refpga/reconfig/config_port.hpp"

namespace refpga::reconfig {

class ConfigMemory;

/// External bitstream storage (serial flash / low-power memory).
struct FlashSpec {
    std::string name = "spi-flash";
    double read_bps = 160e6;       ///< parallel NOR flash: 8 bit x 20 MHz
    double read_power_mw = 15.0;   ///< power while streaming
};

/// Health of a reconfigurable slot across load attempts.
///
///   Healthy  — last load verified (or no load yet)
///   Failed   — the retry budget is exhausted; no module is resident until a
///              later load succeeds (callers degrade to a software path)
enum class SlotHealth { Healthy, Failed };

/// One reconfigurable slot of the floorplan.
struct Slot {
    std::string name;
    fabric::Region region;
    std::string loaded_module;  ///< empty until first load
    SlotHealth health = SlotHealth::Healthy;
};

struct ReconfigEvent {
    std::string slot;
    std::string module;
    std::int64_t bits = 0;
    double time_s = 0.0;
    double energy_mj = 0.0;
    bool skipped = false;  ///< module was already resident
    int attempts = 0;      ///< transfer attempts charged (0 when skipped)
    double verify_s = 0.0; ///< readback-verify share of time_s
    bool failed = false;   ///< retry budget exhausted; slot marked Failed
};

/// Load-hardening knobs. Verification reads the slot's frames back over the
/// configuration port after each write (doubling the transfer time), so it
/// defaults off; the fault layer arms it when faults are being injected.
struct LoadPolicy {
    bool verify_after_write = false;
    int max_retries = 2;  ///< extra attempts after the first (>= 0)
};

/// Fault outcome of one configuration-load attempt: (slot, module, attempt)
/// -> fault::LoadFault. Installed by the fault-injection layer; the default
/// (empty) hook never faults.
using LoadFaultHook =
    std::function<fault::LoadFault(const std::string& slot,
                                   const std::string& module, int attempt)>;

class ReconfigController {
public:
    ReconfigController(const fabric::Device& dev, ConfigPortSpec port,
                       FlashSpec flash = {});

    [[nodiscard]] const ConfigPortSpec& port() const { return port_; }

    /// Declares a slot. Regions of different slots must not overlap columns
    /// (frames are column-granular).
    void add_slot(const std::string& name, const fabric::Region& region);

    /// Registers a module's partial bitstream for a slot.
    void register_module(const std::string& slot, const std::string& module);

    /// Loads `module` into `slot`. No-op (skipped event) when already
    /// resident and the slot is Healthy. Configuration streams from flash
    /// into the port; the slower of the two paces the transfer. With a
    /// fault hook installed, flash errors and verify mismatches trigger
    /// bounded retries (LoadPolicy::max_retries), every attempt's time and
    /// energy charged to the ledger; an exhausted budget marks the slot
    /// Failed and clears its resident module, so the next request retries
    /// from scratch (recovery path).
    ReconfigEvent load(const std::string& slot, const std::string& module);

    [[nodiscard]] const std::string& resident_module(const std::string& slot) const;
    [[nodiscard]] SlotHealth slot_health(const std::string& slot) const;

    // --- fault hardening ------------------------------------------------------

    void set_load_policy(LoadPolicy policy);

    /// Installs the per-attempt fault source (empty hook = no faults).
    void set_load_fault_hook(LoadFaultHook hook) { fault_hook_ = std::move(hook); }

    /// Mirrors successful loads into a configuration memory so readback
    /// scrubbing sees them (corrupted transfers land with wrong signatures).
    /// The memory must outlive the controller; pass nullptr to detach.
    void attach_memory(ConfigMemory* memory) { memory_ = memory; }

    /// Attach (or detach with nullptr) an observability recorder. load()
    /// then bumps reconfig.{loads,loads_skipped,load_retries,load_failures,
    /// bits_written,verify_reads}_total and observes the modelled per-load
    /// time into reconfig.load_seconds. Non-owning.
    void set_recorder(obs::Recorder* recorder);

    // --- ledger ---------------------------------------------------------------

    [[nodiscard]] const std::vector<ReconfigEvent>& events() const { return events_; }
    [[nodiscard]] double total_time_s() const;
    [[nodiscard]] double total_energy_mj() const;
    [[nodiscard]] long load_count() const;   ///< non-skipped loads
    [[nodiscard]] long retry_count() const;  ///< attempts beyond the first
    [[nodiscard]] long failed_load_count() const;

private:
    [[nodiscard]] Slot& find_slot(const std::string& name);
    [[nodiscard]] const Slot& find_slot(const std::string& name) const;

    fabric::Device dev_;  // owned copy: the controller must outlive any caller-supplied device
    ConfigPortSpec port_;
    FlashSpec flash_;
    LoadPolicy policy_;
    LoadFaultHook fault_hook_;
    ConfigMemory* memory_ = nullptr;  // not owned
    std::vector<Slot> slots_;
    std::map<std::string, std::vector<std::string>> slot_modules_;
    std::vector<ReconfigEvent> events_;

    obs::Recorder* recorder_ = nullptr;  // not owned
    struct ObsIds {
        obs::MetricId loads, skipped, retries, failures;
        obs::MetricId bits_written, verify_reads;
        obs::MetricId load_seconds;
    } obs_ids_;
};

}  // namespace refpga::reconfig
