#include "refpga/reconfig/controller.hpp"

#include <algorithm>

#include "refpga/common/contracts.hpp"
#include "refpga/reconfig/scrubber.hpp"

namespace refpga::reconfig {

namespace {

// FNV-1a over the module name: the content signature its frames carry in the
// configuration memory (salted per column by ConfigMemory::load_columns).
std::uint64_t module_signature(const std::string& module) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : module) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace

ReconfigController::ReconfigController(const fabric::Device& dev, ConfigPortSpec port,
                                       FlashSpec flash)
    : dev_(dev), port_(std::move(port)), flash_(std::move(flash)) {}

void ReconfigController::add_slot(const std::string& name,
                                  const fabric::Region& region) {
    REFPGA_EXPECTS(region.x_begin >= 0 && region.x_end <= dev_.cols());
    for (const Slot& s : slots_) {
        REFPGA_EXPECTS(s.name != name);
        const bool overlap =
            region.x_begin < s.region.x_end && s.region.x_begin < region.x_end;
        REFPGA_EXPECTS(!overlap && "slot column ranges must not overlap");
    }
    slots_.push_back(Slot{name, region, {}});
}

void ReconfigController::register_module(const std::string& slot,
                                         const std::string& module) {
    (void)find_slot(slot);  // validates existence
    auto& mods = slot_modules_[slot];
    REFPGA_EXPECTS(std::find(mods.begin(), mods.end(), module) == mods.end());
    mods.push_back(module);
}

Slot& ReconfigController::find_slot(const std::string& name) {
    for (Slot& s : slots_)
        if (s.name == name) return s;
    throw ContractViolation("unknown slot: " + name);
}

const Slot& ReconfigController::find_slot(const std::string& name) const {
    for (const Slot& s : slots_)
        if (s.name == name) return s;
    throw ContractViolation("unknown slot: " + name);
}

void ReconfigController::set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    if (recorder_ == nullptr) return;
    obs::MetricRegistry& m = recorder_->metrics();
    obs_ids_.loads = m.counter("reconfig.loads_total");
    obs_ids_.skipped = m.counter("reconfig.loads_skipped_total");
    obs_ids_.retries = m.counter("reconfig.load_retries_total");
    obs_ids_.failures = m.counter("reconfig.load_failures_total");
    obs_ids_.bits_written = m.counter("reconfig.bits_written_total");
    obs_ids_.verify_reads = m.counter("reconfig.verify_reads_total");
    // Bounds bracket the paper's port spread: SelectMAP swaps ~100 us,
    // JTAG the better part of a second (Table 1 geometry).
    obs_ids_.load_seconds = m.histogram(
        "reconfig.load_seconds",
        {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0});
}

void ReconfigController::set_load_policy(LoadPolicy policy) {
    REFPGA_EXPECTS(policy.max_retries >= 0);
    policy_ = policy;
}

SlotHealth ReconfigController::slot_health(const std::string& slot) const {
    return find_slot(slot).health;
}

ReconfigEvent ReconfigController::load(const std::string& slot,
                                       const std::string& module) {
    Slot& s = find_slot(slot);
    const auto it = slot_modules_.find(slot);
    REFPGA_EXPECTS(it != slot_modules_.end());
    REFPGA_EXPECTS(std::find(it->second.begin(), it->second.end(), module) !=
                   it->second.end());

    ReconfigEvent event;
    event.slot = slot;
    event.module = module;

    if (s.loaded_module == module && s.health == SlotHealth::Healthy) {
        event.skipped = true;
        events_.push_back(event);
        if (recorder_ != nullptr && recorder_->enabled())
            recorder_->metrics().add(obs_ids_.skipped);
        return event;
    }

    const Bitstream bs = Bitstream::for_region(dev_, module, s.region);
    event.bits = bs.bits;

    // The controller streams flash -> port; the slower path paces it.
    const double port_time = port_.config_time_s(bs);
    const double flash_time = static_cast<double>(bs.bits) / flash_.read_bps;
    const double transfer_s = std::max(port_time, flash_time);
    const double transfer_mj =
        transfer_s * (port_.active_power_mw + flash_.read_power_mw);
    // Verification streams the slot's frames back over the same port (no
    // extra setup; flash is idle during readback).
    const double verify_s =
        policy_.verify_after_write
            ? static_cast<double>(bs.bits) / port_.throughput_bps()
            : 0.0;

    bool success = false;
    bool landed_corrupt = false;
    int verify_reads = 0;
    while (event.attempts <= policy_.max_retries) {
        ++event.attempts;
        const fault::LoadFault fault =
            fault_hook_ ? fault_hook_(slot, module, event.attempts)
                        : fault::LoadFault{};
        event.time_s += transfer_s;
        event.energy_mj += transfer_mj;
        if (fault.flash_error) {
            // The fetch fails its CRC at end of stream: the attempt's full
            // transfer time is spent, nothing lands in the fabric.
            continue;
        }
        if (policy_.verify_after_write) {
            ++verify_reads;
            event.verify_s += verify_s;
            event.time_s += verify_s;
            event.energy_mj += verify_s * port_.active_power_mw;
            if (fault.corrupt_transfer) {
                // Readback disagrees with the golden bitstream: retry.
                continue;
            }
        }
        success = true;
        // Without verification a corrupted transfer goes unnoticed here and
        // lands with a wrong signature — readback scrubbing's job to find.
        landed_corrupt = fault.corrupt_transfer;
        break;
    }

    if (success) {
        s.loaded_module = module;
        s.health = SlotHealth::Healthy;
        if (memory_ != nullptr)
            memory_->load_columns(s.region.x_begin, s.region.x_end,
                                  module_signature(module), landed_corrupt);
    } else {
        s.loaded_module.clear();
        s.health = SlotHealth::Failed;
        event.failed = true;
    }
    events_.push_back(event);
    if (recorder_ != nullptr && recorder_->enabled()) {
        obs::MetricRegistry& m = recorder_->metrics();
        m.add(obs_ids_.loads);
        // Every attempt streams the full partial bitstream over the port.
        m.add(obs_ids_.bits_written,
              static_cast<double>(event.bits) * event.attempts);
        if (event.attempts > 1) m.add(obs_ids_.retries, event.attempts - 1);
        if (verify_reads > 0) m.add(obs_ids_.verify_reads, verify_reads);
        if (event.failed) m.add(obs_ids_.failures);
        m.observe(obs_ids_.load_seconds, event.time_s);
    }
    return event;
}

const std::string& ReconfigController::resident_module(const std::string& slot) const {
    return find_slot(slot).loaded_module;
}

double ReconfigController::total_time_s() const {
    double t = 0.0;
    for (const auto& e : events_) t += e.time_s;
    return t;
}

double ReconfigController::total_energy_mj() const {
    double e = 0.0;
    for (const auto& ev : events_) e += ev.energy_mj;
    return e;
}

long ReconfigController::load_count() const {
    long n = 0;
    for (const auto& e : events_)
        if (!e.skipped) ++n;
    return n;
}

long ReconfigController::retry_count() const {
    long n = 0;
    for (const auto& e : events_)
        if (e.attempts > 1) n += e.attempts - 1;
    return n;
}

long ReconfigController::failed_load_count() const {
    long n = 0;
    for (const auto& e : events_)
        if (e.failed) ++n;
    return n;
}

}  // namespace refpga::reconfig
