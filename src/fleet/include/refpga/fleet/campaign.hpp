// Campaign execution: many independent scenarios, optionally in parallel.
//
// Each scenario builds its own app::MeasurementSystem seeded from the
// scenario descriptor and runs its fill trajectory end to end; the outcome
// (accuracy, latency, power, reconfiguration overhead, device fit) lands in
// a result slot owned by that scenario. A scenario that throws becomes a
// failed record carrying the exception text — it never aborts the campaign.
//
// Determinism guarantee: outcomes depend only on the scenario descriptors
// (which carry their own seeds), never on thread count or completion order,
// so a campaign's report is byte-identical however it is scheduled.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "refpga/fleet/scenario.hpp"
#include "refpga/obs/obs.hpp"

namespace refpga::fleet {

/// Measured results of one scenario (or its failure record).
struct ScenarioOutcome {
    Scenario scenario;
    bool ok = false;
    std::string error;  ///< exception text when !ok

    // Accuracy over the fill trajectory (measured vs ground-truth level).
    double level_error_mean = 0.0;
    double level_error_max = 0.0;

    // Schedule (Fig. 4) occupancy, averaged per cycle.
    double cycle_busy_ms = 0.0;
    double reconfig_ms_per_cycle = 0.0;

    // Power model: part leakage + first-order clock tree of the resident
    // logic + reconfiguration energy amortized over the cycle period.
    double static_mw = 0.0;
    double dynamic_mw = 0.0;
    double reconfig_energy_mj = 0.0;

    // Device fit of the variant's resident logic (with PAR headroom).
    std::size_t resident_slices = 0;
    std::string fitted_part;  ///< smallest part that fits; empty if none
    bool device_fits = false; ///< resident logic fits the scenario's part

    // Fault injection and the self-healing response (refpga::fault).
    long upsets_injected = 0;
    long upsets_detected = 0;
    long columns_repaired = 0;
    long load_retries = 0;
    long load_failures = 0;
    long rejected_cycles = 0;   ///< plausibility guard held last-good value
    long fallback_cycles = 0;   ///< served by the resident software path
    double availability = 1.0;  ///< fraction of undegraded cycles
    double mttd_ms = 0.0;       ///< mean time to detect an upset
    double mttr_ms = 0.0;       ///< mean time to repair an upset
    double scrub_ms_per_cycle = 0.0;  ///< readback + repair time per cycle

    [[nodiscard]] double total_mw() const { return static_mw + dynamic_mw; }
};

struct CampaignResult {
    std::vector<ScenarioOutcome> outcomes;  ///< same order as the input scenarios

    [[nodiscard]] std::size_t failure_count() const {
        std::size_t n = 0;
        for (const ScenarioOutcome& o : outcomes)
            if (!o.ok) ++n;
        return n;
    }
};

/// Version of the simulation model behind every ScenarioOutcome. Bumped by
/// any change that makes an unchanged scenario produce different outcomes
/// (2: the ziggurat tank-noise generator replaced the Irwin-Hall-12 sum).
/// svc checkpoint headers record it, so a resume never merges outcomes of
/// two models into one report.
inline constexpr int kModelVersion = 2;

struct CampaignOptions {
    /// Worker threads; 1 runs inline on the calling thread, more start
    /// min(threads, scenarios) threads that claim scenarios in sweep order.
    /// The report is identical either way (see determinism guarantee above).
    int threads = 1;
    /// Front-end streaming block size (modulator ticks) applied to every
    /// scenario's system; must be positive (the runner's constructor throws
    /// ContractViolation otherwise). Each scenario's system streams through
    /// its own analog::SampleBlock (about 6 KB), grown in its first cycle.
    /// Outcomes are bit-identical for every value (see app::SystemOptions).
    int stream_block_ticks = 4096;
    /// Test instrumentation: invoked inside each scenario's try-block before
    /// its system is built, so tests can exercise failure isolation
    /// (including non-std::exception throws). Empty in production use.
    std::function<void(const Scenario&)> scenario_probe;
    /// Observability sink (refpga::obs); the campaign's obs toggle. When
    /// set, the runner records campaign.* per-scenario wall time and
    /// failure counts and propagates the recorder into every scenario's
    /// app::MeasurementSystem (one shared recorder across all workers; all
    /// sinks are thread-safe). Wall-clock metrics live only in the obs
    /// export — scenario outcomes and the campaign report body stay
    /// byte-identical across thread counts. Non-owning; must outlive run().
    obs::Recorder* recorder = nullptr;
    /// Graceful-shutdown flag (typically set by a SIGINT/SIGTERM handler).
    /// When it reads true, scenarios not yet started are recorded as failed
    /// outcomes with error "cancelled before start" instead of running —
    /// in-flight scenarios finish normally, so the runner drains rather
    /// than aborts. Non-owning; must outlive run(). nullptr = never stop.
    const std::atomic<bool>* stop = nullptr;

    CampaignOptions() = default;
    CampaignOptions(int threads_) : threads(threads_) {}  // NOLINT: {N} spells a thread count
};

/// Place-and-route margin on a slice count before it is fitted to a part:
/// PAR closes slice-dominated Spartan-3 designs at ~93% utilization.
inline constexpr double kParHeadroom = 1.07;

/// Per-variant resident-logic demand, shared read-only by all scenarios of a
/// campaign (computed once, before workers start).
struct VariantFit {
    std::size_t resident_slices = 0;
    std::size_t with_headroom = 0;  ///< resident_slices x kParHeadroom
    std::size_t resident_ffs = 0;   ///< clock loads for the dynamic-power model
    std::optional<fabric::PartName> fitted;
};

/// Resident slice/FF demand of a system variant (from the structural system
/// netlist; Software keeps only the static area resident). Computed once per
/// process and variant; thread-safe. svc::Coordinator computes the fits of
/// its job before it forks, so its workers inherit them.
[[nodiscard]] VariantFit variant_fit(app::SystemVariant variant);

class CampaignRunner {
public:
    explicit CampaignRunner(CampaignOptions options = {});

    [[nodiscard]] const CampaignOptions& options() const { return options_; }

    /// Executes every scenario and returns outcomes in input order.
    [[nodiscard]] CampaignResult run(const std::vector<Scenario>& scenarios) const;

private:
    CampaignOptions options_;
};

}  // namespace refpga::fleet
