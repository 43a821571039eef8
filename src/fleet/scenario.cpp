#include "refpga/fleet/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace refpga::fleet {

const char* port_kind_name(PortKind kind) {
    switch (kind) {
        case PortKind::Jcap: return "jcap";
        case PortKind::JcapAccelerated: return "jcap-acc";
        case PortKind::Icap: return "icap";
        case PortKind::SelectMap: return "selectmap";
    }
    return "?";
}

reconfig::ConfigPortSpec make_port(PortKind kind) {
    switch (kind) {
        case PortKind::Jcap: return reconfig::jcap_port();
        case PortKind::JcapAccelerated: return reconfig::jcap_accelerated_port();
        case PortKind::Icap: return reconfig::icap_port();
        case PortKind::SelectMap: return reconfig::selectmap_port();
    }
    return reconfig::jcap_port();
}

std::uint64_t scenario_seed(std::uint64_t campaign_seed, std::uint64_t index) {
    // One SplitMix64 step over campaign_seed advanced by the grid index; the
    // same expansion the Rng constructor uses to spread a seed into state.
    std::uint64_t z = campaign_seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t Sweep::grid_size() const {
    return variants.size() * parts.size() * ports.size() * noise_levels.size() *
           upset_rates.size() * fills.size();
}

namespace {

void require(bool ok, const std::string& key, const char* rule) {
    if (!ok) throw std::invalid_argument(key + ": " + rule);
}

// Comparisons are written so that NaN fails them.
bool finite_non_negative(double v) { return std::isfinite(v) && v >= 0.0; }
bool in_unit_interval(double v) { return v >= 0.0 && v <= 1.0; }

std::string format_noise(double noise) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "n%.4g", noise);
    return buf;
}

std::string format_upset_rate(double rate) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "u%.4g", rate);
    return buf;
}

std::string format_fill(const FillProfile& fill) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "f%.2f-%.2f", fill.start_level, fill.end_level);
    return buf;
}

}  // namespace

void Sweep::validate() const {
    require(!variants.empty(), "variants", "empty list");
    require(!parts.empty(), "parts", "empty list");
    require(!ports.empty(), "ports", "empty list");
    require(!noise_levels.empty(), "noise_levels", "empty list");
    require(!upset_rates.empty(), "upset_rates", "empty list");
    require(!fills.empty(), "fills", "empty list");
    for (const double noise : noise_levels)
        require(finite_non_negative(noise), "noise_levels", "must be finite and >= 0");
    for (const double rate : upset_rates)
        require(finite_non_negative(rate), "upset_rates", "must be finite and >= 0");
    for (const FillProfile& fill : fills) {
        require(in_unit_interval(fill.start_level), "fills.start", "must be in [0, 1]");
        require(in_unit_interval(fill.end_level), "fills.end", "must be in [0, 1]");
    }
    require(in_unit_interval(fault_defaults.load_corruption_prob),
            "fault.load_corruption_prob", "must be in [0, 1]");
    require(in_unit_interval(fault_defaults.flash_error_prob),
            "fault.flash_error_prob", "must be in [0, 1]");
    require(in_unit_interval(fault_defaults.glitch_prob_per_cycle),
            "fault.glitch_prob_per_cycle", "must be in [0, 1]");
    require(cycles > 0, "cycles", "must be positive");
}

std::vector<Scenario> Sweep::expand() const {
    std::vector<Scenario> grid;
    grid.reserve(grid_size());
    for (const app::SystemVariant variant : variants)
        for (const fabric::PartName part : parts)
            for (const PortKind port : ports)
                for (const double noise : noise_levels)
                    for (const double upset_rate : upset_rates)
                        for (const FillProfile& fill : fills) {
                            Scenario s;
                            s.variant = variant;
                            s.part = part;
                            s.port = port;
                            s.fill = fill;
                            s.noise_rms_v = noise;
                            s.fault = fault_defaults;
                            s.fault.upset_rate_per_column_s = upset_rate;
                            s.cycles = cycles;
                            s.seed = scenario_seed(campaign_seed, grid.size());
                            s.name = std::string(app::variant_name(variant)) + "|" +
                                     std::string(fabric::part(part).id) + "|" +
                                     port_kind_name(port) + "|" +
                                     format_noise(noise) + "|" +
                                     format_upset_rate(upset_rate) + "|" +
                                     format_fill(fill);
                            grid.push_back(std::move(s));
                        }
    return grid;
}

SweepBuilder& SweepBuilder::variants(std::vector<app::SystemVariant> v) {
    sweep_.variants = std::move(v);
    return *this;
}

SweepBuilder& SweepBuilder::parts(std::vector<fabric::PartName> v) {
    sweep_.parts = std::move(v);
    return *this;
}

SweepBuilder& SweepBuilder::ports(std::vector<PortKind> v) {
    sweep_.ports = std::move(v);
    return *this;
}

SweepBuilder& SweepBuilder::noise_levels(std::vector<double> v) {
    sweep_.noise_levels = std::move(v);
    return *this;
}

SweepBuilder& SweepBuilder::upset_rates(std::vector<double> v) {
    sweep_.upset_rates = std::move(v);
    return *this;
}

SweepBuilder& SweepBuilder::fault_defaults(fault::FaultSpec spec) {
    sweep_.fault_defaults = spec;
    return *this;
}

SweepBuilder& SweepBuilder::fills(std::vector<FillProfile> v) {
    sweep_.fills = std::move(v);
    return *this;
}

SweepBuilder& SweepBuilder::cycles(int cycles) {
    sweep_.cycles = cycles;
    return *this;
}

SweepBuilder& SweepBuilder::campaign_seed(std::uint64_t seed) {
    sweep_.campaign_seed = seed;
    return *this;
}

std::vector<Scenario> SweepBuilder::build() const {
    sweep_.validate();
    return sweep_.expand();
}

}  // namespace refpga::fleet
