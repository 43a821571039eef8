// Configuration-memory integrity: readback scrubbing for SEU detection and
// recovery.
//
// The paper motivates FPGAs for this application with upcoming requirements
// on "failure detection and recovery" (§1, §5). On SRAM FPGAs the canonical
// mechanism is configuration readback + golden-CRC comparison + partial
// reconfiguration of the corrupted columns — built here on the same
// column-granular bitstream model and configuration ports as the module
// swapping.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "refpga/common/rng.hpp"
#include "refpga/reconfig/config_port.hpp"

namespace refpga::reconfig {

/// The device's configuration SRAM, column granular: each CLB column holds a
/// content signature. Loading sets columns to their golden signature; single
/// event upsets flip bits in one column.
class ConfigMemory {
public:
    explicit ConfigMemory(const fabric::Device& dev);

    [[nodiscard]] const fabric::Device& device() const { return dev_; }

    /// Writes columns [x_begin, x_end) with the configuration identified by
    /// `signature` and records it as golden. With `corrupt_transfer` the
    /// golden store still records the intended signature but the fabric
    /// lands with a wrong one (a transfer fault), so readback scrubbing can
    /// detect the mismatch later.
    void load_columns(int x_begin, int x_end, std::uint64_t signature,
                      bool corrupt_transfer = false);

    /// Flips a configuration bit in `column` (a single-event upset).
    void inject_upset(int column, Rng& rng);

    /// Readback of one column's current signature.
    [[nodiscard]] std::uint64_t read_column(int column) const;
    /// Golden signature recorded at load time (nullopt if never loaded).
    [[nodiscard]] std::optional<std::uint64_t> golden(int column) const;

    [[nodiscard]] bool column_corrupted(int column) const;
    [[nodiscard]] int corrupted_count() const;

private:
    const fabric::Device& dev_;
    std::vector<std::uint64_t> current_;
    std::vector<std::optional<std::uint64_t>> golden_;
};

/// Per-scan outcome of the scrubber.
struct ScrubReport {
    int columns_scanned = 0;
    int upsets_detected = 0;
    int columns_repaired = 0;
    double readback_s = 0.0;  ///< time spent reading configuration back
    double repair_s = 0.0;    ///< time spent rewriting corrupted columns
    double energy_mj = 0.0;

    [[nodiscard]] double total_s() const { return readback_s + repair_s; }
};

/// Periodic readback scrubber over a column range (e.g. the static area, or
/// the whole device between measurement cycles).
class Scrubber {
public:
    /// Readback runs over the same port as configuration; Spartan-3 readback
    /// via JTAG achieves roughly the configuration rate.
    Scrubber(ConfigMemory& memory, ConfigPortSpec port);

    /// One full scan of columns [x_begin, x_end): read back, compare against
    /// golden, rewrite any corrupted column from the golden bitstream.
    ScrubReport scan(int x_begin, int x_end);

private:
    ConfigMemory& memory_;
    ConfigPortSpec port_;
};

/// Mean time to detect an upset, given a scan period: on average the upset
/// lands mid-way between scans and is found after the readback reaches it.
[[nodiscard]] double mean_detection_latency_s(const fabric::Device& dev,
                                              const ConfigPortSpec& port,
                                              double scan_period_s);

}  // namespace refpga::reconfig
