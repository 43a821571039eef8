#include "refpga/reconfig/scrubber.hpp"

#include "refpga/common/contracts.hpp"

namespace refpga::reconfig {

ConfigMemory::ConfigMemory(const fabric::Device& dev)
    : dev_(dev),
      current_(static_cast<std::size_t>(dev.cols()), 0),
      golden_(static_cast<std::size_t>(dev.cols())) {}

void ConfigMemory::load_columns(int x_begin, int x_end, std::uint64_t signature,
                                bool corrupt_transfer) {
    REFPGA_EXPECTS(x_begin >= 0 && x_begin < x_end && x_end <= dev_.cols());
    for (int x = x_begin; x < x_end; ++x) {
        // Each column's signature is salted by position so identical modules
        // in different columns still differ (as real frame data would).
        const std::uint64_t salted = signature ^ (0x9e3779b97f4a7c15ULL * (x + 1));
        golden_[static_cast<std::size_t>(x)] = salted;
        // A corrupted transfer lands with a deterministic one-bit error per
        // column; the golden store keeps the intended frame data.
        current_[static_cast<std::size_t>(x)] =
            corrupt_transfer ? (salted ^ (std::uint64_t{1} << (x % 64))) : salted;
    }
}

void ConfigMemory::inject_upset(int column, Rng& rng) {
    REFPGA_EXPECTS(column >= 0 && column < dev_.cols());
    current_[static_cast<std::size_t>(column)] ^= std::uint64_t{1}
                                                  << rng.next_below(64);
}

std::uint64_t ConfigMemory::read_column(int column) const {
    REFPGA_EXPECTS(column >= 0 && column < dev_.cols());
    return current_[static_cast<std::size_t>(column)];
}

std::optional<std::uint64_t> ConfigMemory::golden(int column) const {
    REFPGA_EXPECTS(column >= 0 && column < dev_.cols());
    return golden_[static_cast<std::size_t>(column)];
}

bool ConfigMemory::column_corrupted(int column) const {
    const auto g = golden(column);
    return g.has_value() && *g != read_column(column);
}

int ConfigMemory::corrupted_count() const {
    int n = 0;
    for (int x = 0; x < dev_.cols(); ++x)
        if (column_corrupted(x)) ++n;
    return n;
}

Scrubber::Scrubber(ConfigMemory& memory, ConfigPortSpec port)
    : memory_(memory), port_(std::move(port)) {}

ScrubReport Scrubber::scan(int x_begin, int x_end) {
    const auto& dev = memory_.device();
    REFPGA_EXPECTS(x_begin >= 0 && x_begin < x_end && x_end <= dev.cols());
    ScrubReport report;
    const double column_bits = static_cast<double>(dev.bits_per_clb_column());

    for (int x = x_begin; x < x_end; ++x) {
        ++report.columns_scanned;
        report.readback_s += column_bits / port_.throughput_bps();
        const auto golden = memory_.golden(x);
        if (!golden.has_value()) continue;  // never configured: nothing to check
        if (memory_.read_column(x) == *golden) continue;

        ++report.upsets_detected;
        // Repair: rewrite the single corrupted column from the golden store.
        memory_.load_columns(x, x + 1, *golden ^ (0x9e3779b97f4a7c15ULL * (x + 1)));
        report.repair_s += port_.setup_s + column_bits / port_.throughput_bps();
        ++report.columns_repaired;
    }
    report.energy_mj = report.total_s() * port_.active_power_mw;
    return report;
}

double mean_detection_latency_s(const fabric::Device& dev, const ConfigPortSpec& port,
                                double scan_period_s) {
    // Expected wait to the next scan start (period/2) plus half a full
    // readback pass (the upset is in a uniformly random column).
    const double full_scan_s = static_cast<double>(dev.bits_per_clb_column()) *
                               dev.cols() / port.throughput_bps();
    return scan_period_s / 2.0 + full_scan_s / 2.0;
}

}  // namespace refpga::reconfig
