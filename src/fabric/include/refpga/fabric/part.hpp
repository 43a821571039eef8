// Xilinx Spartan-3 part catalog (geometry and electrical parameters).
//
// Geometry (CLB array, slices, BRAM/MULT18 counts, configuration bits) follows
// DS099 "Spartan-3 FPGA Family Data Sheet". Electrical parameters (core
// voltage, leakage) are calibrated model values: DS099 quotes typical
// quiescent current per part; we store it as static power at Vccint = 1.2 V so
// that the paper's device-downsizing argument (smaller part => lower static
// power) is quantitative.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace refpga::fabric {

enum class PartName {
    XC3S50,
    XC3S200,
    XC3S400,
    XC3S1000,
    XC3S1500,
    XC3S2000,
    XC3S4000,
    XC3S5000,
};

struct Part {
    PartName name;
    std::string_view id;      ///< e.g. "xc3s400"
    int clb_rows;             ///< CLB array height
    int clb_cols;             ///< CLB array width
    int slices;               ///< total slices (= rows * cols * 4)
    int bram_blocks;          ///< 18-kbit block RAMs
    int multipliers;          ///< dedicated 18x18 multipliers
    int dcms;                 ///< digital clock managers
    std::int64_t config_bits; ///< full-device configuration bitstream size
    double quiescent_ma;      ///< typical quiescent Icc at 1.2 V (model value)
    double unit_cost_usd;     ///< volume unit price (2007-era, model value)

    /// Static power in milliwatts at Vccint = 1.2 V.
    [[nodiscard]] double static_power_mw() const { return quiescent_ma * 1.2; }
};

/// All Spartan-3 parts, smallest first.
[[nodiscard]] std::span<const Part> spartan3_parts();

/// Catalog lookup by enumerator.
[[nodiscard]] const Part& part(PartName name);

/// Catalog lookup by id string ("xc3s400"); empty optional if unknown.
[[nodiscard]] std::optional<PartName> parse_part(std::string_view id);

/// Smallest part satisfying all resource demands; empty optional if none fits.
[[nodiscard]] std::optional<PartName> smallest_fit(int slices, int brams, int mults);

}  // namespace refpga::fabric
