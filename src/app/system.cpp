#include "refpga/app/system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "refpga/common/contracts.hpp"
#include "refpga/reconfig/busmacro.hpp"

namespace refpga::app {

const char* variant_name(SystemVariant variant) {
    switch (variant) {
        case SystemVariant::Software: return "software";
        case SystemVariant::MonolithicHw: return "monolithic-hw";
        case SystemVariant::ReconfiguredHw: return "reconfigured-hw";
    }
    return "?";
}

SystemOptions::SystemOptions() : port(reconfig::jcap_port()) {}

namespace {

SystemOptions checked(SystemOptions options) {
    options.params.validate();
    return options;
}

analog::FrontEndConfig frontend_config(const SystemOptions& options) {
    const AppParams& params = options.params;
    analog::FrontEndConfig cfg;
    cfg.modulator_hz = params.modulator_hz;
    cfg.signal_hz = params.signal_hz;
    cfg.adc_decimation = params.adc_decimation;
    cfg.tank.c_ref_pf = params.c_ref_pf;
    cfg.tank.c_empty_pf = params.c_empty_pf;
    cfg.tank.c_full_pf = params.c_full_pf;
    cfg.tank.noise_rms_v = options.tank_noise_rms_v;
    return cfg;
}

// Content signature of the power-up (full-device) configuration.
constexpr std::uint64_t kStaticSignature = 0x5e1f0c0def417a11ULL;

// Settling windows discarded before the measured window (analog filters and
// the CIC need to charge up).
constexpr int kSettleWindows = 2;

// Plausibility guard (armed, like load verification, only when the fault
// spec injects something): largest credible level change per cycle. A
// larger jump holds the last-good value instead (counted as a rejection),
// until kPlausibilityPatience consecutive rejections: a persistent
// "implausible" reading is a real step change, not a transient fault.
constexpr double kMaxLevelJump = 0.25;
constexpr int kPlausibilityPatience = 2;

// Stuck-bit pattern a corrupted fabric imprints on the capacity word; always
// large enough (>= 170 pF) to trip the plausibility guard's jump.
constexpr std::uint32_t kFabricCorruptMask = 0x2AAA;

// Wall-clock histogram bounds for cycle phases: the streamed sample window
// runs sub-millisecond on current hosts; the decade ladder keeps the same
// metric meaningful on slower hosts and sanitizer builds too.
std::vector<double> wall_bounds() {
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
}

}  // namespace

MeasurementSystem::MeasurementSystem(SystemOptions options, std::uint64_t noise_seed)
    : options_(checked(std::move(options))),
      frontend_(frontend_config(options_), noise_seed),
      tables_(options_.params),
      filter_(options_.params),
      device_(options_.part),
      controller_(device_, options_.port),
      config_mem_(device_),
      scrubber_(config_mem_, options_.port),
      // Fault schedule seeded independently of the analog noise stream.
      plan_(options_.fault, device_.cols(), noise_seed ^ 0xFA17005EED5EED01ULL) {
    REFPGA_EXPECTS(options_.scrub_idle_fraction >= 0.0 &&
                   options_.scrub_idle_fraction <= 1.0);
    REFPGA_EXPECTS(options_.load_max_retries >= 0);
    REFPGA_EXPECTS(options_.stream_block_ticks > 0);

    // Power-up configures the whole device; from then on every column is
    // covered by readback scrubbing.
    config_mem_.load_columns(0, device_.cols(), kStaticSignature);
    controller_.attach_memory(&config_mem_);

    if (options_.fault.any()) {
        // Self-healing mode: loads verify their own readback and retry.
        reconfig::LoadPolicy policy;
        policy.verify_after_write = true;
        policy.max_retries = options_.load_max_retries;
        controller_.set_load_policy(policy);
        if (options_.fault.load_corruption_prob > 0.0 ||
            options_.fault.flash_error_prob > 0.0)
            controller_.set_load_fault_hook(
                [this](const std::string&, const std::string&, int) {
                    return plan_.next_load_fault();
                });
    }

    if (options_.recorder != nullptr) {
        obs::MetricRegistry& m = options_.recorder->metrics();
        obs_ids_.cycles = m.counter("cycle.count_total");
        obs_ids_.fallback = m.counter("cycle.fallback_total");
        obs_ids_.rejected = m.counter("cycle.plausibility_rejected_total");
        obs_ids_.corrupted = m.counter("cycle.fabric_corrupted_total");
        obs_ids_.upsets = m.counter("cycle.upsets_detected_total");
        obs_ids_.repairs = m.counter("cycle.columns_repaired_total");
        // Modelled (simulated-schedule) seconds, straight from the report.
        obs_ids_.model_sampling_s = m.counter("cycle.model_sampling_seconds_total");
        obs_ids_.model_processing_s =
            m.counter("cycle.model_processing_seconds_total");
        obs_ids_.model_reconfig_s = m.counter("cycle.model_reconfig_seconds_total");
        obs_ids_.model_scrub_s = m.counter("cycle.model_scrub_seconds_total");
        // Host wall clock actually spent computing the phases.
        obs_ids_.wall = m.histogram("cycle.wall_seconds", wall_bounds());
        obs_ids_.sample_wall =
            m.histogram("cycle.sample_wall_seconds", wall_bounds());
        obs_ids_.swap_wall =
            m.histogram("cycle.module_swap_wall_seconds", wall_bounds());
        obs::TraceRing& tr = options_.recorder->trace();
        obs_ids_.span_cycle = tr.intern("cycle");
        obs_ids_.span_sample = tr.intern("cycle/sample_window");
        obs_ids_.span_process = tr.intern("cycle/processing");
        obs_ids_.span_swap = tr.intern("cycle/module_swap");
        frontend_.set_recorder(options_.recorder);
        controller_.set_recorder(options_.recorder);
    }

    if (options_.variant == SystemVariant::ReconfiguredHw) {
        // One reconfigurable slot sized for the largest module (Fig. 2);
        // geometry refined by the floorplanning benches — here the slot only
        // needs a column range for bitstream sizing. A third of the device
        // matches the measured module sizes on the XC3S400.
        const int slot_cols = device_.cols() / 3;
        controller_.add_slot("slot0", {device_.cols() - slot_cols, device_.cols(),
                                       0, device_.rows()});
        controller_.register_module("slot0", "amp_phase");
        controller_.register_module("slot0", "capacity");
        controller_.register_module("slot0", "filter");
    }
}

void MeasurementSystem::set_true_level(double level) {
    frontend_.tank().set_level(level);
}

double MeasurementSystem::true_level() const { return frontend_.tank().level(); }

void MeasurementSystem::collect_window(analog::SampleBlock& block,
                                       std::vector<std::int32_t>& meas,
                                       std::vector<std::int32_t>& ref) {
    const AppParams& p = options_.params;
    meas.clear();
    ref.clear();
    const int needed = p.window * (1 + kSettleWindows);

    // Stream the generator's period through the front end,
    // stream_block_ticks modulator ticks at a time. ticks_for_pcm accounts
    // for the ADC decimation phase carried over from the previous cycle, so
    // the settle-plus-measurement window always lands exactly `needed` PCM
    // pairs.
    block.clear_pcm();
    block.reserve_pcm(static_cast<std::size_t>(needed));
    long remaining = frontend_.ticks_for_pcm(needed);
    while (remaining > 0) {
        const auto n =
            static_cast<std::size_t>(std::min<long>(options_.stream_block_ticks, remaining));
        frontend_.run_periodic_ds(sinusgen_.period_bits(), sinusgen_.phase(), n, block);
        sinusgen_.advance(n);
        remaining -= static_cast<long>(n);
    }
    REFPGA_ENSURES(block.pcm_size() == static_cast<std::size_t>(needed));

    const auto skip = static_cast<std::ptrdiff_t>(kSettleWindows) * p.window;
    meas.assign(block.meas.begin() + skip, block.meas.end());
    ref.assign(block.ref.begin() + skip, block.ref.end());
}

void MeasurementSystem::inject_upsets_until(double t_s) {
    for (const fault::UpsetEvent& upset : plan_.upsets_until(t_s)) {
        config_mem_.inject_upset(upset.column, plan_.bit_rng());
        ++stats_.upsets_injected;
        // Latency is measured from the first hit on a column; repeats in the
        // same column before the scrubber gets there are folded into it.
        pending_upsets_.emplace(upset.column, upset.at_s);
    }
}

void MeasurementSystem::apply_glitch(const fault::Glitch& glitch,
                                     std::vector<std::int32_t>& meas,
                                     std::vector<std::int32_t>& ref) {
    if (glitch.kind == fault::GlitchKind::None) return;
    std::vector<std::int32_t>& ch = glitch.on_reference ? ref : meas;
    if (ch.empty()) return;
    ++stats_.glitches_injected;
    if (glitch.kind == fault::GlitchKind::StuckChannel) {
        // The front-end output froze at its first sample of the window.
        std::fill(ch.begin(), ch.end(), ch.front());
        return;
    }
    // Spiking channel: periodic impulses scaled to the channel's own level.
    std::int64_t abs_sum = 0;
    for (const std::int32_t v : ch) abs_sum += std::abs(static_cast<long>(v));
    const auto spike = static_cast<std::int32_t>(
        10 * abs_sum / static_cast<std::int64_t>(ch.size()) + 1000);
    for (std::size_t i = 0; i < ch.size(); i += 16)
        ch[i] += (i % 32 == 0) ? spike : -spike;
}

double MeasurementSystem::level_candidate(std::uint32_t cap_pf_q4) const {
    const AppParams& p = options_.params;
    const double cap_pf = static_cast<double>(cap_pf_q4) / 16.0;
    const double span = p.c_full_pf - p.c_empty_pf;
    return std::clamp((cap_pf - p.c_empty_pf) / span, 0.0, 1.0);
}

SoftCore& MeasurementSystem::soft_core() {
    if (!soft_core_) soft_core_.emplace(options_.params, options_.software);
    return *soft_core_;
}

double MeasurementSystem::fallback_processing_s(
    const std::vector<std::int32_t>& meas, const std::vector<std::int32_t>& ref) {
    // The firmware's cycle count depends a little on the data (the soft
    // multiply's loop, the CORDIC's quadrant and the clamps branch on it):
    // 50 tone windows of amplitude 600-2413 on the legacy port gave 41
    // distinct counts between 372,277 and 372,500 cycles. The fallback
    // simulates the first window only and reuses its timing, an
    // approximation within that 0.06 % spread.
    if (!fallback_s_) {
        const SoftwareRun run = soft_core().run(meas, ref);
        fallback_s_ = run.seconds(options_.params.system_clock_hz);
    }
    return *fallback_s_;
}

void MeasurementSystem::run_scrub_phase(CycleReport& report, double cycle_start_s,
                                        double& t) {
    const AppParams& p = options_.params;
    // Columns that fit into the donated share of this cycle's idle window;
    // at least one per cycle so the cursor always advances.
    const double column_s = static_cast<double>(device_.bits_per_clb_column()) /
                            options_.port.throughput_bps();
    const double idle_s = std::max(0.0, p.cycle_period_s - t);
    int columns = static_cast<int>(options_.scrub_idle_fraction * idle_s / column_s);
    columns = std::clamp(columns, 1, device_.cols());
    const int x_begin = scrub_cursor_;
    const int x_end = std::min(x_begin + columns, device_.cols());

    // Pending upsets inside the scanned range are about to be detected.
    std::vector<double> due_at_s;
    for (const auto& [column, at_s] : pending_upsets_)
        if (column >= x_begin && column < x_end && config_mem_.column_corrupted(column))
            due_at_s.push_back(at_s);

    const reconfig::ScrubReport scrub = scrubber_.scan(x_begin, x_end);
    scrub_cursor_ = x_end >= device_.cols() ? 0 : x_end;

    report.upsets_detected = scrub.upsets_detected;
    report.columns_repaired = scrub.columns_repaired;
    report.scrub_s = scrub.readback_s;
    report.repair_s = scrub.repair_s;
    stats_.upsets_detected += scrub.upsets_detected;
    stats_.columns_repaired += scrub.columns_repaired;
    stats_.scrub_s += scrub.readback_s;
    stats_.repair_s += scrub.repair_s;

    report.phases.push_back({"config scrub (idle window)", t, scrub.readback_s});
    t += scrub.readback_s;
    const double detect_s = cycle_start_s + t;
    if (scrub.repair_s > 0.0) {
        report.phases.push_back({"config repair (golden rewrite)", t, scrub.repair_s});
        t += scrub.repair_s;
    }
    const double repair_done_s = cycle_start_s + t;

    for (const double at_s : due_at_s) {
        stats_.detect_latency_sum_s += detect_s - at_s;
        ++stats_.detect_latency_count;
        stats_.repair_latency_sum_s += repair_done_s - at_s;
        ++stats_.repair_latency_count;
    }
    // Scanned columns are settled: detected ones were just repaired, the
    // rest were overwritten by a module load in the meantime.
    std::erase_if(pending_upsets_, [&](const auto& entry) {
        return entry.first >= x_begin && entry.first < x_end;
    });
}

CycleReport MeasurementSystem::run_cycle() { return run_cycle(block_); }

CycleReport MeasurementSystem::run_cycle(analog::SampleBlock& block) {
    const AppParams& p = options_.params;
    CycleReport report;
    double t = 0.0;
    const double cycle_start_s =
        static_cast<double>(cycles_run_) * p.cycle_period_s;
    obs::ScopedSpan cycle_span(options_.recorder, obs_ids_.span_cycle,
                               obs_ids_.wall);

    // --- Phase 1: AD conversion of the measurement/reference signals --------
    std::vector<std::int32_t> meas;
    std::vector<std::int32_t> ref;
    {
        obs::ScopedSpan sample_span(options_.recorder, obs_ids_.span_sample,
                                    obs_ids_.sample_wall);
        collect_window(block, meas, ref);
    }
    apply_glitch(plan_.next_glitch(), meas, ref);
    report.sampling_s = static_cast<double>(p.window * (1 + kSettleWindows)) /
                        p.pcm_rate_hz();
    report.phases.push_back({"AD conversion (sample window)", t, report.sampling_s});
    t += report.sampling_s;
    // Upsets land in real time: everything due by the end of sampling is in
    // the fabric before processing starts.
    inject_upsets_until(cycle_start_s + t);

    auto add_reconfig = [&](const char* module) -> bool {
        if (options_.variant != SystemVariant::ReconfiguredHw) return true;
        obs::ScopedSpan swap_span(options_.recorder, obs_ids_.span_swap,
                                  obs_ids_.swap_wall);
        const reconfig::ReconfigEvent ev = controller_.load("slot0", module);
        swap_span.finish();
        stats_.load_retries += std::max(0, ev.attempts - 1);
        if (ev.time_s > 0.0) {
            std::string label = std::string("reconfig: ") + module;
            if (ev.attempts > 1)
                label += " (+" + std::to_string(ev.attempts - 1) + " retry)";
            report.phases.push_back({std::move(label), t, ev.time_s});
            report.reconfig_s += ev.time_s;
            t += ev.time_s;
        }
        if (ev.failed) {
            ++stats_.load_failures;
            return false;
        }
        return true;
    };
    auto add_processing = [&](const char* name, double seconds) {
        report.phases.push_back({name, t, seconds});
        report.processing_s += seconds;
        t += seconds;
    };

    golden::CapacityResult cap_raw;
    bool filter_in_hw = false;
    obs::ScopedSpan process_span(options_.recorder, obs_ids_.span_process);
    if (options_.variant == SystemVariant::Software) {
        // The MicroBlaze executes the full pipeline from the sample buffers.
        const SoftwareRun run = soft_core().run(meas, ref);
        add_processing("software data processing (MicroBlaze)",
                       run.seconds(p.system_clock_hz));
        report.result.meas = {run.amp_meas, run.phase_meas};
        report.result.ref = {run.amp_ref, run.phase_ref};
        cap_raw.ratio_q12 = run.ratio_q12;
        cap_raw.cap_pf_q4 = run.cap_pf_q4;
        report.result.level.level_q15 = run.level_q15;
    } else {
        // Hardware modules replay the buffered window at the system clock:
        // N cycles of streaming MAC, then the combinational tail registered
        // over a handful of cycles per stage.
        const golden::WindowAccumulators acc =
            golden::accumulate_window(meas, ref, p, tables_);
        bool hw_ok = add_reconfig("amp_phase");
        if (hw_ok) {
            report.result.meas = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables_);
            report.result.ref = golden::amp_phase(acc.i_ref, acc.q_ref, p, tables_);
            add_processing("amplitude & phase (HW module)",
                           static_cast<double>(p.window + 4) / p.system_clock_hz);
            hw_ok = add_reconfig("capacity");
        }
        if (hw_ok) {
            cap_raw = golden::capacity(report.result.meas, report.result.ref, p, tables_);
            add_processing("capacity computation (HW module)", 4.0 / p.system_clock_hz);
            hw_ok = add_reconfig("filter");
        }
        if (hw_ok) {
            filter_in_hw = true;
        } else {
            // Graceful degradation: the slot is Failed, so the resident
            // software path (MicroBlaze) serves the cycle instead of
            // aborting it.
            report.fallback = true;
            ++stats_.fallback_cycles;
            report.result.meas = golden::amp_phase(acc.i_meas, acc.q_meas, p, tables_);
            report.result.ref = golden::amp_phase(acc.i_ref, acc.q_ref, p, tables_);
            cap_raw = golden::capacity(report.result.meas, report.result.ref, p, tables_);
            add_processing("fallback: software pipeline (slot failed)",
                           fallback_processing_s(meas, ref));
        }
    }
    process_span.finish();

    // --- Fabric-corruption oracle + plausibility guard ----------------------
    if (config_mem_.corrupted_count() > 0) {
        // A corrupted frame upstream of the result staging garbles the
        // capacity word with a stuck-bit pattern.
        cap_raw.cap_pf_q4 = (cap_raw.cap_pf_q4 ^ kFabricCorruptMask) & 0xFFFF;
        report.fabric_corrupted = true;
        ++stats_.corrupted_cycles;
    }

    // The plausibility guard (like load verification) is armed only in
    // self-healing mode: on a fault-free system it would veto legitimate
    // steep fill ramps and change the paper's baseline results.
    const double candidate = level_candidate(cap_raw.cap_pf_q4);
    if (options_.fault.any() && have_last_good_ &&
        std::abs(candidate - last_good_candidate_) > kMaxLevelJump &&
        reject_streak_ < kPlausibilityPatience) {
        // Implausible jump: hold the last-good value.
        ++reject_streak_;
        ++stats_.rejected_cycles;
        report.plausibility_rejected = true;
    } else {
        reject_streak_ = 0;
    }

    report.result.cap = report.plausibility_rejected ? last_good_cap_ : cap_raw;
    if (options_.variant == SystemVariant::Software) {
        if (report.plausibility_rejected) report.result.level = last_good_level_;
    } else {
        report.result.level = filter_.step(report.result.cap.cap_pf_q4);
        if (filter_in_hw)
            add_processing("filter & level (HW module)", 4.0 / p.system_clock_hz);
    }
    if (!report.plausibility_rejected) {
        have_last_good_ = true;
        last_good_candidate_ = candidate;
        last_good_cap_ = report.result.cap;
        last_good_level_ = report.result.level;
    }

    // --- Readback scrubbing in the remaining idle window --------------------
    inject_upsets_until(cycle_start_s + t);
    run_scrub_phase(report, cycle_start_s, t);

    report.level = static_cast<double>(report.result.level.level_q15) / 32768.0;
    report.capacitance_pf = static_cast<double>(report.result.cap.cap_pf_q4) / 16.0;
    ++cycles_run_;
    ++stats_.cycles;
    if (report.fallback || report.plausibility_rejected || report.fabric_corrupted)
        ++stats_.degraded_cycles;

    if (options_.recorder != nullptr && options_.recorder->enabled()) {
        obs::MetricRegistry& m = options_.recorder->metrics();
        m.add(obs_ids_.cycles);
        m.add(obs_ids_.model_sampling_s, report.sampling_s);
        m.add(obs_ids_.model_processing_s, report.processing_s);
        m.add(obs_ids_.model_reconfig_s, report.reconfig_s);
        m.add(obs_ids_.model_scrub_s, report.scrub_s + report.repair_s);
        if (report.fallback) m.add(obs_ids_.fallback);
        if (report.plausibility_rejected) m.add(obs_ids_.rejected);
        if (report.fabric_corrupted) m.add(obs_ids_.corrupted);
        if (report.upsets_detected > 0)
            m.add(obs_ids_.upsets, report.upsets_detected);
        if (report.columns_repaired > 0)
            m.add(obs_ids_.repairs, report.columns_repaired);
    }
    return report;
}

// ---------------------------------------------------------------------------
// Structural system netlist
// ---------------------------------------------------------------------------

SystemNetlist build_system_netlist(const SystemNetlistOptions& options) {
    using netlist::Builder;
    using netlist::Bus;
    using netlist::NetId;
    const AppParams& p = options.params;

    SystemNetlist sys;
    sys.static_part = netlist::PartitionId{0};
    sys.amp_part = sys.nl.add_partition("amp_phase");
    sys.cap_part = sys.nl.add_partition("capacity");
    sys.filt_part = sys.nl.add_partition("filter");

    const Bus clk_port = sys.nl.add_input_port("clk", 1);
    Builder b(sys.nl, clk_port[0]);

    // ---- static area --------------------------------------------------------
    const Bus meas_in = sys.nl.add_input_port("adc_meas", p.sample_bits);
    const Bus ref_in = sys.nl.add_input_port("adc_ref", p.sample_bits);
    const Bus valid_in = sys.nl.add_input_port("adc_valid", 1);
    const Bus clear_in = sys.nl.add_input_port("window_clear", 1);
    const Bus chan_in = sys.nl.add_input_port("chan_sel", 1);
    const Bus tick16 = sys.nl.add_input_port("tick_16mhz", 1);

    if (options.include_soft_ip) soc::emit_static_soft_ip(b, options.soft_ip);

    const SinusGeneratorIo sinus = make_sinus_generator(b, tick16[0]);
    sys.nl.add_output_port("dac_code", sinus.code8);
    sys.nl.add_output_port("dac_ds_bit", Bus{sinus.ds_bit});

    const AdcInterfaceIo adc = make_adc_interface(b, meas_in, ref_in, valid_in[0], p);

    // ---- amp/phase module (reconfigurable) ----------------------------------
    // All boundary signals pass through slice-based bus macros. When a module
    // is not resident, its result staging is tied off (the slot is empty).
    Bus amp_back;
    if (options.include_amp) {
        Bus amp_in_m = reconfig::bus_macro(b, adc.meas, sys.static_part,
                                           sys.amp_part, "meas");
        Bus amp_in_r = reconfig::bus_macro(b, adc.ref, sys.static_part,
                                           sys.amp_part, "ref");
        Bus amp_ctrl = reconfig::bus_macro(
            b, Bus{adc.valid, clear_in[0], chan_in[0]}, sys.static_part,
            sys.amp_part, "ctl");
        sys.nl.set_current_partition(sys.amp_part);
        const AmpPhaseIo amp = make_amp_phase(b, amp_in_m, amp_in_r, amp_ctrl[0],
                                              amp_ctrl[1], amp_ctrl[2], p);
        // Results return to the static side and are registered there (the
        // module can be swapped out afterwards).
        amp_back = reconfig::bus_macro(
            b, Builder::concat(Builder::concat(amp.amp, amp.phase), Bus{amp.done}),
            sys.amp_part, sys.static_part, "ampres");
    } else {
        amp_back = b.constant(0, 16 + p.angle_bits + 1);
    }
    sys.nl.set_current_partition(sys.static_part);
    const Bus amp_store = b.reg(amp_back, NetId{}, "amp_store");
    const Bus amp_m_s = Builder::slice(amp_store, 0, 16);
    const Bus ph_m_s = Builder::slice(amp_store, 16, p.angle_bits);
    const NetId done_s = amp_store[16 + static_cast<std::size_t>(p.angle_bits)];
    sys.nl.add_output_port("window_done", Bus{done_s});
    // Second channel registers (static side latches both channel readouts).
    const Bus amp_r_s = b.reg(amp_m_s, NetId{}, "amp_r_store");
    const Bus ph_r_s = b.reg(ph_m_s, NetId{}, "ph_r_store");

    // ---- capacity module ----------------------------------------------------
    Bus cap_back;
    if (options.include_capacity) {
        const Bus cap_in = reconfig::bus_macro(
            b,
            Builder::concat(Builder::concat(amp_m_s, ph_m_s),
                            Builder::concat(amp_r_s, ph_r_s)),
            sys.static_part, sys.cap_part, "capin");
        sys.nl.set_current_partition(sys.cap_part);
        const CapacityIo cap = make_capacity(
            b, Builder::slice(cap_in, 0, 16),
            Builder::slice(cap_in, 16, p.angle_bits),
            Builder::slice(cap_in, 16 + p.angle_bits, 16),
            Builder::slice(cap_in, 32 + p.angle_bits, p.angle_bits), p);
        cap_back = reconfig::bus_macro(b, cap.cap_pf_q4, sys.cap_part,
                                       sys.static_part, "capres");
    } else {
        cap_back = b.constant(0, 16);
    }
    sys.nl.set_current_partition(sys.static_part);
    const Bus cap_store = b.reg(cap_back, NetId{}, "cap_store");
    sys.nl.add_output_port("capacity_q4", cap_store);

    // ---- filter module ------------------------------------------------------
    Bus filt_back;
    if (options.include_filter) {
        Bus filt_in = reconfig::bus_macro(b, Builder::concat(cap_store, Bus{done_s}),
                                          sys.static_part, sys.filt_part, "filtin");
        sys.nl.set_current_partition(sys.filt_part);
        const FilterIo filt = make_filter(b, Builder::slice(filt_in, 0, 16),
                                          filt_in[16], p);
        filt_back = reconfig::bus_macro(
            b, Builder::concat(filt.level_q15, Bus{filt.alarm_high, filt.alarm_low}),
            sys.filt_part, sys.static_part, "filtres");
    } else {
        filt_back = b.constant(0, 18);
    }
    sys.nl.set_current_partition(sys.static_part);
    const Bus level_store = b.reg(filt_back, NetId{}, "level_store");
    sys.nl.add_output_port("level_q15", Builder::slice(level_store, 0, 16));
    sys.nl.add_output_port("alarms", Builder::slice(level_store, 16, 2));

    return sys;
}

}  // namespace refpga::app
