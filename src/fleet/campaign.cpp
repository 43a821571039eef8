#include "refpga/fleet/campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>

#include "refpga/analog/sample_block.hpp"
#include "refpga/analog/tank.hpp"
#include "refpga/common/contracts.hpp"
#include "refpga/common/thread_pool.hpp"
#include "refpga/netlist/stats.hpp"
#include "refpga/power/estimator.hpp"

namespace refpga::fleet {

namespace {

// PAR closes slice-dominated Spartan-3 designs at ~93% utilization; same
// margin as bench_device_fit.
constexpr double kParHeadroom = 1.07;

VariantFit fit_from_stats(const std::vector<netlist::PartitionStats>& stats,
                          bool all_resident) {
    // Partition order of build_system_netlist: static, amp, capacity, filter.
    const netlist::PartitionStats& st = stats[0];
    std::size_t slices = st.slices();
    std::size_t ffs = st.ffs;
    std::size_t brams = st.brams;
    std::size_t mults = st.mults;
    if (all_resident) {
        for (std::size_t i = 1; i < stats.size(); ++i) {
            slices += stats[i].slices();
            ffs += stats[i].ffs;
            brams += stats[i].brams;
            mults += stats[i].mults;
        }
    } else {
        // One slot sized for the largest module; its FF/BRAM/MULT demand
        // rides along with the winning module.
        std::size_t best = 1;
        for (std::size_t i = 2; i < stats.size(); ++i)
            if (stats[i].slices() > stats[best].slices()) best = i;
        slices += stats[best].slices();
        ffs += stats[best].ffs;
        brams += stats[best].brams;
        mults += stats[best].mults;
    }

    VariantFit fit;
    fit.resident_slices = slices;
    fit.with_headroom =
        static_cast<std::size_t>(static_cast<double>(slices) * kParHeadroom);
    fit.resident_ffs = ffs;
    fit.fitted = fabric::smallest_fit(static_cast<int>(fit.with_headroom),
                                      static_cast<int>(brams),
                                      static_cast<int>(mults));
    return fit;
}

VariantFit compute_variant_fit(app::SystemVariant variant) {
    app::SystemNetlistOptions options;
    if (variant == app::SystemVariant::Software) {
        // Processing runs on the soft core: only the static area is resident.
        options.include_amp = false;
        options.include_capacity = false;
        options.include_filter = false;
    }
    const app::SystemNetlist sys = app::build_system_netlist(options);
    const auto stats = netlist::partition_stats(sys.nl);
    return fit_from_stats(stats, variant != app::SystemVariant::ReconfiguredHw);
}

}  // namespace

VariantFit variant_fit(app::SystemVariant variant) {
    // A pure function of the variant: each fit is built once per process, on
    // first use, by whichever thread gets there first.
    static std::array<std::once_flag, 3> once;
    static std::array<VariantFit, 3> fits;
    const auto v = static_cast<std::size_t>(variant);
    REFPGA_EXPECTS(v < fits.size());
    std::call_once(once[v], [&] { fits[v] = compute_variant_fit(variant); });
    return fits[v];
}

namespace {

// Campaign-level observability ids, interned once per run() so the workers
// only touch lock-free recording paths.
struct CampaignObs {
    obs::Recorder* rec = nullptr;
    obs::MetricId scenarios, failures, wall;
    std::uint32_t span = 0;
};

CampaignObs make_campaign_obs(obs::Recorder* rec) {
    CampaignObs c;
    c.rec = rec;
    if (rec == nullptr) return c;
    obs::MetricRegistry& m = rec->metrics();
    c.scenarios = m.counter("campaign.scenarios_total");
    c.failures = m.counter("campaign.scenario_failures_total");
    c.wall = m.histogram("campaign.scenario_wall_seconds",
                         {1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0});
    c.span = rec->trace().intern("campaign/scenario");
    return c;
}

ScenarioOutcome run_one(const Scenario& s, const std::array<VariantFit, 3>& fits,
                        const CampaignOptions& campaign, const CampaignObs& cobs) {
    ScenarioOutcome o;
    o.scenario = s;
    if (campaign.stop != nullptr &&
        campaign.stop->load(std::memory_order_relaxed)) {
        // Graceful shutdown: not-yet-started scenarios become diagnosable
        // failure records, so the report shows exactly what was skipped and
        // the campaign exits non-zero on an incomplete sweep.
        o.ok = false;
        o.error = "cancelled before start";
        if (cobs.rec != nullptr && cobs.rec->enabled()) {
            cobs.rec->metrics().add(cobs.scenarios);
            cobs.rec->metrics().add(cobs.failures);
        }
        return o;
    }
    obs::ScopedSpan scenario_span(cobs.rec, cobs.span, cobs.wall);
    try {
        if (campaign.scenario_probe) campaign.scenario_probe(s);
        REFPGA_EXPECTS(s.cycles > 0);
        REFPGA_EXPECTS(s.noise_rms_v >= 0.0);
        REFPGA_EXPECTS(s.fill.start_level >= 0.0 && s.fill.start_level <= 1.0);
        REFPGA_EXPECTS(s.fill.end_level >= 0.0 && s.fill.end_level <= 1.0);

        app::SystemOptions options;
        options.variant = s.variant;
        options.part = s.part;
        options.port = make_port(s.port);
        options.tank_noise_rms_v = s.noise_rms_v;
        options.fault = s.fault;
        options.stream_block_ticks = campaign.stream_block_ticks;
        options.recorder = campaign.recorder;
        app::MeasurementSystem system(options, s.seed);

        // One streaming buffer per worker thread, shared by every scenario
        // that worker runs: the sample window streams through warm storage
        // instead of reallocating per scenario. Scratch only — outcomes stay
        // independent of which worker (and hence which buffer) ran them.
        thread_local analog::SampleBlock stream_block;

        // Accuracy uses the per-cycle capacitance estimate inverted to a
        // level, not the filtered output: the EMA deliberately trails fill
        // ramps (it averages out sloshing), which would swamp short
        // campaigns with filter lag instead of pipeline error.
        analog::TankParams tank;
        tank.c_empty_pf = options.params.c_empty_pf;
        tank.c_full_pf = options.params.c_full_pf;
        tank.c_ref_pf = options.params.c_ref_pf;

        double err_sum = 0.0;
        double busy_sum = 0.0;
        for (int c = 0; c < s.cycles; ++c) {
            const double level = s.fill.level_at(c, s.cycles);
            system.set_true_level(level);
            const app::CycleReport report = system.run_cycle(stream_block);
            const double measured =
                analog::level_from_capacitance(tank, report.capacitance_pf);
            const double err = std::abs(measured - level);
            err_sum += err;
            o.level_error_max = std::max(o.level_error_max, err);
            busy_sum += report.busy_s();
        }
        o.level_error_mean = err_sum / s.cycles;
        o.cycle_busy_ms = busy_sum / s.cycles * 1e3;

        const reconfig::ReconfigController& ctrl = system.controller();
        o.reconfig_ms_per_cycle = ctrl.total_time_s() / s.cycles * 1e3;
        o.reconfig_energy_mj = ctrl.total_energy_mj();

        const fault::FaultStats& fs = system.fault_stats();
        o.upsets_injected = fs.upsets_injected;
        o.upsets_detected = fs.upsets_detected;
        o.columns_repaired = fs.columns_repaired;
        o.load_retries = fs.load_retries;
        o.load_failures = fs.load_failures;
        o.rejected_cycles = fs.rejected_cycles;
        o.fallback_cycles = fs.fallback_cycles;
        o.availability = fs.availability();
        o.mttd_ms = fs.mean_time_to_detect_s() * 1e3;
        o.mttr_ms = fs.mean_time_to_repair_s() * 1e3;
        o.scrub_ms_per_cycle = (fs.scrub_s + fs.repair_s) / s.cycles * 1e3;

        const fabric::Part& part = fabric::part(s.part);
        const VariantFit& fit = fits[static_cast<std::size_t>(s.variant)];
        o.resident_slices = fit.with_headroom;
        o.fitted_part = fit.fitted ? std::string(fabric::part(*fit.fitted).id) : "";
        o.device_fits = fit.with_headroom <= static_cast<std::size_t>(part.slices);

        // Power: part leakage + the clock tree of the resident sequential
        // logic (same first-order model as power::estimate_power) + the
        // reconfiguration energy amortized over the cycle period.
        const power::PowerOptions pw;
        const double clock_c_pf =
            pw.clock_trunk_pf +
            pw.clock_load_pf_per_ff * static_cast<double>(fit.resident_ffs);
        o.static_mw = part.static_power_mw();
        o.dynamic_mw = clock_c_pf * 1e-12 * pw.vdd * pw.vdd *
                           options.params.system_clock_hz * 1e3 +
                       o.reconfig_energy_mj /
                           (s.cycles * options.params.cycle_period_s);
        o.ok = true;
    } catch (const std::exception& e) {
        o.ok = false;
        o.error = e.what();
    } catch (...) {
        // A non-standard throw still becomes a failure record instead of
        // escaping into the worker thread and taking the campaign down.
        o.ok = false;
        o.error = "non-standard exception";
    }
    scenario_span.finish();
    if (cobs.rec != nullptr && cobs.rec->enabled()) {
        cobs.rec->metrics().add(cobs.scenarios);
        if (!o.ok) cobs.rec->metrics().add(cobs.failures);
    }
    return o;
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignOptions options) : options_(options) {
    REFPGA_EXPECTS(options_.stream_block_ticks > 0);
}

CampaignResult CampaignRunner::run(const std::vector<Scenario>& scenarios) const {
    // Resident-logic fits are shared by every scenario of a variant; compute
    // them once up front so workers only ever read them.
    std::array<VariantFit, 3> fits{};
    std::array<bool, 3> needed{};
    for (const Scenario& s : scenarios) needed[static_cast<std::size_t>(s.variant)] = true;
    for (std::size_t v = 0; v < needed.size(); ++v)
        if (needed[v])
            fits[v] = variant_fit(static_cast<app::SystemVariant>(v));

    CampaignResult result;
    result.outcomes.resize(scenarios.size());
    const CampaignObs cobs = make_campaign_obs(options_.recorder);
    if (options_.threads <= 1) {
        for (std::size_t i = 0; i < scenarios.size(); ++i)
            result.outcomes[i] = run_one(scenarios[i], fits, options_, cobs);
        return result;
    }

    ThreadPool pool(options_.threads);
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        pool.submit([&scenarios, &result, &fits, &cobs, i, this] {
            // Each job writes only its own slot: no synchronization needed.
            result.outcomes[i] = run_one(scenarios[i], fits, options_, cobs);
        });
    pool.wait_idle();
    return result;
}

}  // namespace refpga::fleet
