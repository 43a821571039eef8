#include "refpga/fault/fault.hpp"

#include <cmath>
#include <limits>

#include "refpga/common/contracts.hpp"

namespace refpga::fault {

namespace {

// SplitMix64 step: derives independent per-category seeds from the plan seed
// so fault categories never share an RNG stream (same mixing as scenario
// seeding in refpga::fleet).
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

FaultPlan::FaultPlan(FaultSpec spec, int columns, std::uint64_t seed)
    : spec_(spec),
      columns_(columns),
      upset_rng_(mix(seed, 1)),
      load_rng_(mix(seed, 2)),
      glitch_rng_(mix(seed, 3)),
      bit_rng_(mix(seed, 4)),
      next_upset_s_(std::numeric_limits<double>::infinity()) {
    REFPGA_EXPECTS(columns_ > 0);
    // A non-finite rate would schedule upsets at t += 0 forever.
    REFPGA_EXPECTS(std::isfinite(spec_.upset_rate_per_column_s) &&
                   spec_.upset_rate_per_column_s >= 0.0);
    REFPGA_EXPECTS(spec_.load_corruption_prob >= 0.0 && spec_.load_corruption_prob <= 1.0);
    REFPGA_EXPECTS(spec_.flash_error_prob >= 0.0 && spec_.flash_error_prob <= 1.0);
    REFPGA_EXPECTS(spec_.glitch_prob_per_cycle >= 0.0 && spec_.glitch_prob_per_cycle <= 1.0);
    if (spec_.upset_rate_per_column_s > 0.0) next_upset_s_ = draw_interarrival_s();
}

double FaultPlan::draw_interarrival_s() {
    // Exponential inter-arrival for a Poisson process over the whole device:
    // aggregate rate = per-column rate x columns. next_double() < 1, so the
    // log argument stays positive.
    const double lambda = spec_.upset_rate_per_column_s * columns_;
    return -std::log(1.0 - upset_rng_.next_double()) / lambda;
}

std::vector<UpsetEvent> FaultPlan::upsets_until(double t_s) {
    std::vector<UpsetEvent> events;
    while (next_upset_s_ < t_s) {
        events.push_back({next_upset_s_,
                          static_cast<int>(upset_rng_.next_below(
                              static_cast<std::uint32_t>(columns_)))});
        next_upset_s_ += draw_interarrival_s();
    }
    return events;
}

LoadFault FaultPlan::next_load_fault() {
    LoadFault fault;
    // Each category draws only when enabled, so arming one fault source
    // never perturbs another's stream.
    if (spec_.flash_error_prob > 0.0)
        fault.flash_error = load_rng_.next_double() < spec_.flash_error_prob;
    if (spec_.load_corruption_prob > 0.0)
        fault.corrupt_transfer = load_rng_.next_double() < spec_.load_corruption_prob;
    return fault;
}

Glitch FaultPlan::next_glitch() {
    Glitch glitch;
    if (spec_.glitch_prob_per_cycle <= 0.0) return glitch;
    if (glitch_rng_.next_double() < spec_.glitch_prob_per_cycle) {
        glitch.kind = (glitch_rng_.next_u64() & 1) ? GlitchKind::SpikingChannel
                                                   : GlitchKind::StuckChannel;
        glitch.on_reference = (glitch_rng_.next_u64() & 1) != 0;
    }
    return glitch;
}

}  // namespace refpga::fault
