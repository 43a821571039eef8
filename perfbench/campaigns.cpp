// The two measurement-campaign workloads: the same fleet/app layers driven
// in-process (campaign_hw) and through the sharded service
// (campaign_svc_mixed).
#include <iterator>
#include <optional>
#include <sstream>

#include "harness.hpp"
#include "refpga/app/params.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/outcome_codec.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/fleet/scenario.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/svc/coordinator.hpp"
#include "refpga/svc/job.hpp"

namespace perfbench {
namespace {

using namespace refpga;
using app::SystemVariant;
using fabric::PartName;
using fleet::PortKind;

// At most two threads or worker processes per workload, on a 4-core host.
constexpr int kThreads = 2;

const std::vector<PartName> kParts{PartName::XC3S200, PartName::XC3S400,
                                   PartName::XC3S1000};
const std::vector<PortKind> kPorts{PortKind::Jcap, PortKind::JcapAccelerated};
const std::vector<double> kNoise{1e-3, 5e-3};

double histogram_count(const obs::MetricRegistry& m, std::string_view name) {
    const obs::MetricId id = m.find(name);
    return id.valid() ? static_cast<double>(m.snapshot(id).count) : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Cycle-level layer metrics (app, analog, reconfig) read off the obs
/// recorder of one in-process campaign run, one sample per run.
struct CycleSamples {
    std::vector<double> cycle_s_mean, sample_share, processing_share, ticks, loads,
        bits_written, swap_s;

    void add(const obs::MetricRegistry& m) {
        const double wall = m.value("cycle.wall_seconds");
        const double sample = m.value("cycle.sample_wall_seconds");
        const double swap = m.value("cycle.module_swap_wall_seconds");
        cycle_s_mean.push_back(ratio(wall, histogram_count(m, "cycle.wall_seconds")));
        sample_share.push_back(ratio(sample, wall));
        // What a cycle spends outside sampling and module swaps is the
        // processing model (the soc ISS on Software scenarios).
        processing_share.push_back(ratio(wall - sample - swap, wall));
        ticks.push_back(m.value("frontend.ticks_total"));
        loads.push_back(m.value("reconfig.loads_total"));
        bits_written.push_back(m.value("reconfig.bits_written_total"));
        swap_s.push_back(swap);
    }

    void report(Values& out) const {
        out["app.cycle_s_mean"] = median(cycle_s_mean);
        out["analog.sample_share"] = median(sample_share);
        out["app.processing_share"] = median(processing_share);
        out["analog.ticks"] = median(ticks);
        out["reconfig.loads"] = median(loads);
        out["reconfig.bits_written"] = median(bits_written);
        out["reconfig.swap_s"] = median(swap_s);
    }
};

/// Modelled statistics of a campaign's outcomes.
void outcome_model(const std::vector<fleet::ScenarioOutcome>& outcomes, Values& out) {
    const double period_ms = app::AppParams{}.cycle_period_s * 1e3;
    std::vector<double> busy;
    double overruns = 0, upsets = 0, repaired = 0, retries = 0, fallback = 0;
    for (const fleet::ScenarioOutcome& o : outcomes) {
        busy.push_back(o.cycle_busy_ms);
        if (o.cycle_busy_ms > period_ms) ++overruns;
        upsets += static_cast<double>(o.upsets_detected);
        repaired += static_cast<double>(o.columns_repaired);
        retries += static_cast<double>(o.load_retries);
        fallback += static_cast<double>(o.fallback_cycles);
    }
    out["model.cycle_busy_ms_mean"] = mean(busy);
    out["model.deadline_overrun_scenarios"] = overruns;
    out["fault.upsets_detected"] = upsets;
    out["fault.columns_repaired"] = repaired;
    out["fault.load_retries"] = retries;
    out["app.fallback_cycles"] = fallback;
}

/// Times the public fleet::variant_fit prologue once per variant.
void time_variant_fit(SpanLog* spans, const std::vector<SystemVariant>& variants) {
    if (spans == nullptr) return;
    spans->set_job(-1);
    for (const SystemVariant v : variants) {
        Scope s(spans, "fleet.variant_fit");
        (void)fleet::variant_fit(v);
    }
}

std::string render_report(const fleet::CampaignResult& result) {
    return fleet::CampaignReport::from(result).render_json();
}

// --- campaign_hw -----------------------------------------------------------

const std::vector<SystemVariant> kHwVariants{SystemVariant::MonolithicHw,
                                             SystemVariant::ReconfiguredHw};

class CampaignHw final : public Workload {
public:
    explicit CampaignHw(const WorkloadOptions& options) : seed_(options.seed) {}

    std::string reference(SpanLog* spans) override {
        time_variant_fit(spans, kHwVariants);
        setup();
        reference_json_ = render_report(fleet::CampaignRunner(1).run(scenarios_));
        return reference_json_;
    }

    void use_reference(std::string bytes) override { reference_json_ = std::move(bytes); }

    void setup() override {
        scenarios_ = fleet::SweepBuilder()
                         .variants(kHwVariants)
                         .parts(kParts)
                         .ports(kPorts)
                         .noise_levels(kNoise)
                         .cycles(64)
                         .campaign_seed(seed_)
                         .build();
    }

    JobOutcome run_job(SpanLog* spans) override {
        std::optional<obs::Recorder> recorder;
        if (spans != nullptr) recorder.emplace();
        fleet::CampaignOptions options(kThreads);
        options.recorder = recorder ? &*recorder : nullptr;

        const Clock::time_point start = Clock::now();
        {
            Scope s(spans, "fleet.campaign_run");
            last_ = fleet::CampaignRunner(options).run(scenarios_);
        }
        const double run_s = seconds_since(start);
        std::string json;
        {
            Scope s(spans, "fleet.report_render");
            json = render_report(last_);
        }

        JobOutcome outcome;
        outcome.scenarios = last_.outcomes.size() - last_.failure_count();
        if (last_.failure_count() != 0)
            outcome.failures.push_back(std::to_string(last_.failure_count()) +
                                       " scenarios failed");
        if (json != reference_json_)
            outcome.failures.push_back("report differs from the 1-thread run");
        digest_ = fnv1a(json);

        if (recorder) {
            const obs::MetricRegistry& m = recorder->metrics();
            const double scenario_wall = m.value("campaign.scenario_wall_seconds");
            scenario_s_mean_.push_back(ratio(
                scenario_wall, histogram_count(m, "campaign.scenario_wall_seconds")));
            efficiency_.push_back(ratio(scenario_wall, kThreads * run_s));
            cycles_.add(m);
        }
        return outcome;
    }

    void layer_metrics(const SpanLog& spans, Values& out) const override {
        out["fleet.variant_fit_s"] = spans.median_self_s("fleet.variant_fit");
        out["fleet.campaign_run_s"] = spans.median_self_s("fleet.campaign_run");
        out["fleet.report_render_s"] = spans.median_self_s("fleet.report_render");
        out["fleet.scenario_s_mean"] = median(scenario_s_mean_);
        out["fleet.parallel_efficiency"] = median(efficiency_);
        cycles_.report(out);
    }

    void model_metrics(Values& out) const override { outcome_model(last_.outcomes, out); }

    [[nodiscard]] std::uint64_t report_digest() const override { return digest_; }

private:
    std::uint64_t seed_;
    std::vector<fleet::Scenario> scenarios_;
    std::string reference_json_;
    fleet::CampaignResult last_;
    std::uint64_t digest_ = 0;
    // Per traced job.
    std::vector<double> scenario_s_mean_, efficiency_;
    CycleSamples cycles_;
};

// --- campaign_svc_mixed ----------------------------------------------------

svc::JobSpec mixed_spec(std::uint64_t seed) {
    svc::JobSpec spec;
    spec.variants = {SystemVariant::Software, SystemVariant::MonolithicHw,
                     SystemVariant::ReconfiguredHw};
    spec.parts = kParts;
    spec.ports = kPorts;
    spec.noise_levels = kNoise;
    spec.upset_rates = {0.0, 0.5};
    spec.fault_defaults.load_corruption_prob = 0.05;
    spec.fault_defaults.flash_error_prob = 0.02;
    spec.fault_defaults.glitch_prob_per_cycle = 0.05;
    spec.cycles = 32;
    spec.campaign_seed = seed;
    return spec;
}

class CampaignSvcMixed final : public Workload {
public:
    explicit CampaignSvcMixed(const WorkloadOptions& options)
        : seed_(options.seed), workdir_(options.workdir) {}

    // The in-process run of the same grid: the report the service must
    // reproduce byte for byte. Traced, it runs serially with a recorder so
    // it also gives the serial baseline and the worker-side layer metrics,
    // which do not cross the process boundary.
    std::string reference(SpanLog* spans) override {
        setup();
        time_variant_fit(spans, spec_.variants);
        std::optional<obs::Recorder> recorder;
        if (spans != nullptr) recorder.emplace();
        fleet::CampaignOptions options(spans != nullptr ? 1 : kThreads);
        options.stream_block_ticks = spec_.stream_block_ticks;
        options.recorder = recorder ? &*recorder : nullptr;
        const Clock::time_point start = Clock::now();
        const fleet::CampaignResult result =
            fleet::CampaignRunner(options).run(spec_.expand());
        serial_s_ = seconds_since(start);
        reference_json_ = render_report(result);
        reference_outcomes_ = result.outcomes;
        if (recorder) cycles_.add(recorder->metrics());

        // The outcome count, one encoded outcome per line, then the report.
        std::string bytes = std::to_string(reference_outcomes_.size()) + "\n";
        for (const fleet::ScenarioOutcome& o : reference_outcomes_)
            bytes += fleet::encode_outcome_line(o) + "\n";
        return bytes + reference_json_;
    }

    void use_reference(std::string bytes) override {
        std::istringstream in(std::move(bytes));
        std::size_t count = 0;
        in >> count;
        in.ignore();
        std::string line;
        for (std::size_t i = 0; i < count && std::getline(in, line); ++i)
            reference_outcomes_.push_back(fleet::decode_outcome_line(line));
        reference_json_.assign(std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>());
    }

    void setup() override {
        spec_ = mixed_spec(seed_);
        options_ = svc::CoordinatorOptions{};
        options_.workers = kThreads;
        options_.worker_threads = 1;
        options_.launch = svc::CoordinatorOptions::Launch::Fork;
        options_.checkpoint_path = workdir_ + "/campaign.ckpt";
        options_.spool_path = workdir_ + "/campaign.spool";
    }

    JobOutcome run_job(SpanLog* spans) override {
        std::optional<obs::Recorder> recorder;
        if (spans != nullptr) recorder.emplace();
        svc::CoordinatorOptions options = options_;
        options.recorder = recorder ? &*recorder : nullptr;

        std::optional<svc::Coordinator> coordinator;
        svc::CoordinatorResult result;
        {
            Scope s(spans, "svc.coordinator_run");
            coordinator.emplace(spec_, options);
            result = coordinator->run();
        }
        std::string json;
        {
            Scope s(spans, "svc.report_render");
            json = coordinator->report().render_json();
        }

        JobOutcome outcome;
        const std::size_t failed = coordinator->report().failure_count();
        outcome.scenarios = result.scenarios_committed - failed;
        if (!result.completed) outcome.failures.push_back("incomplete: " + result.error);
        if (result.worker_restarts != 0) outcome.failures.push_back("worker restarted");
        if (failed != 0)
            outcome.failures.push_back(std::to_string(failed) + " scenarios failed");
        if (json != reference_json_)
            outcome.failures.push_back("report differs from the in-process run");
        digest_ = fnv1a(json);

        if (recorder) {
            dispatched_.push_back(static_cast<double>(result.shards_dispatched));
            stolen_.push_back(static_cast<double>(result.shards_stolen));
            checkpoint_writes_.push_back(
                recorder->metrics().value("svc.checkpoint_writes_total"));
            restarts_.push_back(static_cast<double>(result.worker_restarts));
            retained_.push_back(static_cast<double>(result.max_retained_rows));
        }
        return outcome;
    }

    void layer_metrics(const SpanLog& spans, Values& out) const override {
        out["fleet.variant_fit_s"] = spans.median_self_s("fleet.variant_fit");
        const double run_s = spans.median_self_s("svc.coordinator_run");
        out["svc.coordinator_run_s"] = run_s;
        out["svc.report_render_s"] = spans.median_self_s("svc.report_render");
        out["svc.parallel_efficiency"] = ratio(serial_s_, kThreads * run_s);
        out["svc.shards_dispatched"] = median(dispatched_);
        out["svc.shards_stolen"] = median(stolen_);
        out["svc.checkpoint_writes"] = median(checkpoint_writes_);
        out["svc.worker_restarts"] = median(restarts_);
        out["svc.max_retained_rows"] = median(retained_);
        cycles_.report(out);
    }

    // Every job's report is checked byte-identical to the reference's, so
    // the reference outcomes are the job's.
    void model_metrics(Values& out) const override {
        outcome_model(reference_outcomes_, out);
    }

    [[nodiscard]] std::uint64_t report_digest() const override { return digest_; }

private:
    std::uint64_t seed_;
    std::string workdir_;
    svc::JobSpec spec_;
    svc::CoordinatorOptions options_;
    std::string reference_json_;
    std::vector<fleet::ScenarioOutcome> reference_outcomes_;
    double serial_s_ = 0.0;
    std::uint64_t digest_ = 0;
    // Per traced job.
    std::vector<double> dispatched_, stolen_, checkpoint_writes_, restarts_, retained_;
    CycleSamples cycles_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_hw(const WorkloadOptions& options) {
    return std::make_unique<CampaignHw>(options);
}

std::unique_ptr<Workload> make_campaign_svc_mixed(const WorkloadOptions& options) {
    return std::make_unique<CampaignSvcMixed>(options);
}

}  // namespace perfbench
