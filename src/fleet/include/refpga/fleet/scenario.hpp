// Measurement-campaign scenarios and the one campaign grid description.
//
// A Scenario pins down everything one end-to-end `app::MeasurementSystem`
// run depends on: implementation variant, target part, configuration port,
// tank noise, fill trajectory and the RNG seed for noise injection. A Sweep
// holds per-axis value lists and expands them into the full cartesian grid
// in a fixed, documented order, deriving every scenario's seed from the
// campaign seed and its grid index — so a campaign is fully reproducible
// from the Sweep alone, independent of how it is later executed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "refpga/app/system.hpp"
#include "refpga/fabric/part.hpp"
#include "refpga/fault/fault.hpp"
#include "refpga/reconfig/config_port.hpp"

namespace refpga::fleet {

/// Configuration ports a scenario can sweep over (the §4.2/§5 trade-off).
enum class PortKind { Jcap, JcapAccelerated, Icap, SelectMap };

[[nodiscard]] const char* port_kind_name(PortKind kind);
[[nodiscard]] reconfig::ConfigPortSpec make_port(PortKind kind);

/// Linear tank-fill trajectory over a scenario's measurement cycles.
struct FillProfile {
    double start_level = 0.1;
    double end_level = 0.9;

    /// Ground-truth level at cycle `i` of `cycles` (clamp-free linear ramp).
    [[nodiscard]] double level_at(int i, int cycles) const {
        if (cycles <= 1) return start_level;
        return start_level + (end_level - start_level) * i / (cycles - 1);
    }

    friend constexpr bool operator==(const FillProfile&, const FillProfile&) = default;
};

/// One independent measurement run. Scenarios share no state: each gets its
/// own MeasurementSystem, so any subset may execute concurrently.
struct Scenario {
    std::string name;  ///< unique axis label, assigned by Sweep::expand
    app::SystemVariant variant = app::SystemVariant::ReconfiguredHw;
    fabric::PartName part = fabric::PartName::XC3S400;
    PortKind port = PortKind::Jcap;
    FillProfile fill;
    double noise_rms_v = 1e-3;  ///< tank output noise per channel
    /// Fault environment (upset rate is the swept axis; the other knobs come
    /// from Sweep::fault_defaults). Default: no faults.
    fault::FaultSpec fault;
    int cycles = 8;             ///< measurement cycles to run
    std::uint64_t seed = 0;     ///< per-scenario noise seed (set by Sweep::expand)
};

/// SplitMix64 mix of the campaign seed with a scenario's grid index. Pure
/// function of its inputs: the seed a scenario receives never depends on
/// thread count or execution order.
[[nodiscard]] std::uint64_t scenario_seed(std::uint64_t campaign_seed,
                                          std::uint64_t index);

/// A campaign grid: the swept axes plus the knobs every scenario shares.
///
/// Axes iterate in a fixed nesting order (variant outermost, then part,
/// port, noise, upset rate, fill), so the same sweep always yields the same
/// scenario sequence, names and seeds. svc::JobSpec is this struct plus its
/// JSON codec.
struct Sweep {
    std::vector<app::SystemVariant> variants{app::SystemVariant::ReconfiguredHw};
    std::vector<fabric::PartName> parts{fabric::PartName::XC3S400};
    std::vector<PortKind> ports{PortKind::Jcap};
    std::vector<double> noise_levels{1e-3};
    /// Configuration-upset rates (per column-second) to sweep.
    std::vector<double> upset_rates{0.0};
    /// Non-axis fault knobs (load corruption, flash errors, glitches) applied
    /// to every scenario; the swept upset rate overrides its field.
    fault::FaultSpec fault_defaults;
    std::vector<FillProfile> fills{FillProfile{}};
    int cycles = 8;
    std::uint64_t campaign_seed = 2008;

    /// Number of scenarios expand() produces.
    [[nodiscard]] std::size_t grid_size() const;

    /// The grid rules, checked in one place: no axis is empty, noise levels
    /// and upset rates are finite and >= 0, fill levels are finite and in
    /// [0, 1], fault probabilities are in [0, 1] and cycles > 0. Throws
    /// std::invalid_argument whose message starts with the offending key.
    void validate() const;

    /// The scenario grid, in nesting order. Does not validate.
    [[nodiscard]] std::vector<Scenario> expand() const;
};

/// Fluent construction of a Sweep.
class SweepBuilder {
public:
    SweepBuilder& variants(std::vector<app::SystemVariant> v);
    SweepBuilder& parts(std::vector<fabric::PartName> v);
    SweepBuilder& ports(std::vector<PortKind> v);
    SweepBuilder& noise_levels(std::vector<double> v);
    SweepBuilder& upset_rates(std::vector<double> v);
    SweepBuilder& fault_defaults(fault::FaultSpec spec);
    SweepBuilder& fills(std::vector<FillProfile> v);
    SweepBuilder& cycles(int cycles);
    SweepBuilder& campaign_seed(std::uint64_t seed);

    [[nodiscard]] std::size_t grid_size() const { return sweep_.grid_size(); }

    /// Sweep::validate() followed by Sweep::expand().
    [[nodiscard]] std::vector<Scenario> build() const;

private:
    Sweep sweep_;
};

}  // namespace refpga::fleet
