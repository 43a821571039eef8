#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "refpga/common/contracts.hpp"
#include "refpga/common/thread_pool.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/fleet/scenario.hpp"

namespace refpga::fleet {
namespace {

using app::SystemVariant;
using fabric::PartName;

// A 2x3x2x2 = 24-scenario sweep over the hardware variants (kept off the
// soft-core so the suite stays fast). cycles=2 still exercises reconfig
// module swapping twice.
std::vector<Scenario> acceptance_sweep(std::uint64_t seed = 77) {
    return SweepBuilder{}
        .variants({SystemVariant::MonolithicHw, SystemVariant::ReconfiguredHw})
        .parts({PartName::XC3S200, PartName::XC3S400, PartName::XC3S1000})
        .ports({PortKind::Jcap, PortKind::JcapAccelerated})
        .noise_levels({1e-3, 5e-3})
        .cycles(2)
        .campaign_seed(seed)
        .build();
}

// ---------------------------------------------------------------- sweeps

TEST(SweepBuilder, ExpandsFullCartesianGrid) {
    SweepBuilder builder;
    builder.variants({SystemVariant::Software, SystemVariant::ReconfiguredHw})
        .parts({PartName::XC3S200, PartName::XC3S400, PartName::XC3S1000})
        .ports({PortKind::Jcap, PortKind::Icap})
        .noise_levels({1e-3, 2e-3})
        .fills({{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5}});
    EXPECT_EQ(builder.grid_size(), 2u * 3u * 2u * 2u * 3u);
    const std::vector<Scenario> grid = builder.build();
    ASSERT_EQ(grid.size(), builder.grid_size());

    std::set<std::string> names;
    for (const Scenario& s : grid) names.insert(s.name);
    EXPECT_EQ(names.size(), grid.size()) << "scenario names must be unique";
}

TEST(SweepBuilder, SeedsAreDeterministicAndDistinct) {
    const std::vector<Scenario> a = acceptance_sweep(77);
    const std::vector<Scenario> b = acceptance_sweep(77);
    const std::vector<Scenario> c = acceptance_sweep(78);
    ASSERT_EQ(a.size(), b.size());
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_NE(a[i].seed, c[i].seed) << "campaign seed must move every scenario";
        seeds.insert(a[i].seed);
    }
    EXPECT_EQ(seeds.size(), a.size()) << "per-scenario seeds must be distinct";
}

TEST(SweepBuilder, ScenarioSeedIsPureFunction) {
    EXPECT_EQ(scenario_seed(1, 0), scenario_seed(1, 0));
    EXPECT_NE(scenario_seed(1, 0), scenario_seed(1, 1));
    EXPECT_NE(scenario_seed(1, 0), scenario_seed(2, 0));
}

TEST(SweepBuilder, EmptyAxisRejected) {
    EXPECT_THROW((void)SweepBuilder{}.parts({}).build(), std::invalid_argument);
    EXPECT_THROW((void)SweepBuilder{}.noise_levels({}).build(), std::invalid_argument);
}

TEST(Sweep, ValidateNamesTheOffendingField) {
    const auto message = [](const Sweep& sweep) -> std::string {
        try {
            sweep.validate();
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "accepted";
    };
    EXPECT_EQ(message(Sweep{}), "accepted");
    Sweep s;
    s.upset_rates = {0.0, std::nan("")};
    EXPECT_EQ(message(s).rfind("upset_rates:", 0), 0u) << message(s);
    s = Sweep{};
    s.noise_levels = {std::numeric_limits<double>::infinity()};
    EXPECT_EQ(message(s).rfind("noise_levels:", 0), 0u) << message(s);
    s = Sweep{};
    s.fills = {{0.1, 1.5}};
    EXPECT_EQ(message(s).rfind("fills.end:", 0), 0u) << message(s);
    s = Sweep{};
    s.fault_defaults.glitch_prob_per_cycle = 1.01;
    EXPECT_EQ(message(s).rfind("fault.glitch_prob_per_cycle:", 0), 0u) << message(s);
    s = Sweep{};
    s.cycles = 0;
    EXPECT_EQ(message(s).rfind("cycles:", 0), 0u) << message(s);
}

TEST(Ports, KindsMapToSpecs) {
    EXPECT_EQ(make_port(PortKind::Jcap).name, reconfig::jcap_port().name);
    EXPECT_EQ(make_port(PortKind::Icap).name, reconfig::icap_port().name);
    EXPECT_EQ(make_port(PortKind::SelectMap).name, reconfig::selectmap_port().name);
    EXPECT_EQ(make_port(PortKind::JcapAccelerated).name,
              reconfig::jcap_accelerated_port().name);
    EXPECT_STREQ(port_kind_name(PortKind::Jcap), "jcap");
}

TEST(FillProfile, LinearRampEndpoints) {
    const FillProfile fill{0.2, 0.8};
    EXPECT_DOUBLE_EQ(fill.level_at(0, 4), 0.2);
    EXPECT_DOUBLE_EQ(fill.level_at(3, 4), 0.8);
    EXPECT_DOUBLE_EQ(fill.level_at(0, 1), 0.2);  // single cycle: start level
}

// ---------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryJob) {
    std::atomic<int> counter{0};
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4);
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
    ThreadPool pool(2);
    pool.wait_idle();  // must not hang
}

TEST(ThreadPool, SurvivesThrowingJob) {
    std::atomic<int> counter{0};
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, DestructorDrainsQueuedJobs) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 20; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
    }
    EXPECT_EQ(counter.load(), 20);
}

// ---------------------------------------------------------------- metrics

TEST(MetricSummary, StatsOnKnownData) {
    const MetricSummary s = MetricSummary::of({5.0, 1.0, 3.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.p50, 3.0);
    EXPECT_DOUBLE_EQ(s.p95, 5.0);
    EXPECT_EQ(s.count, 5u);
}

TEST(MetricSummary, EmptyIsAllZero) {
    const MetricSummary s = MetricSummary::of({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(MetricSummary, UnknownKeyRejected) {
    ScenarioOutcome o;
    EXPECT_THROW((void)outcome_metric(o, "not_a_metric"), ContractViolation);
}

// ---------------------------------------------------------------- device fit

TEST(VariantFit, RepeatedAndConcurrentCallsReturnEqualFits) {
    // variant_fit is memoised per process; the first call may race with
    // others on any thread and every caller must see the same fit. Declared
    // before every other caller in this file, so in the default test order
    // these threads make the process's first calls.
    auto same = [](const VariantFit& a, const VariantFit& b) {
        return a.resident_slices == b.resident_slices &&
               a.with_headroom == b.with_headroom &&
               a.resident_ffs == b.resident_ffs && a.fitted == b.fitted;
    };
    const std::array<SystemVariant, 3> variants = {
        SystemVariant::Software, SystemVariant::MonolithicHw,
        SystemVariant::ReconfiguredHw};
    std::array<std::array<VariantFit, 3>, 4> seen{};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back([&seen, &variants, t] {
            for (std::size_t v = 0; v < variants.size(); ++v)
                seen[t][(v + t) % 3] = variant_fit(variants[(v + t) % 3]);
        });
    for (std::thread& thread : threads) thread.join();
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const VariantFit again = variant_fit(variants[v]);
        for (const auto& fits : seen) EXPECT_TRUE(same(fits[v], again)) << v;
    }
    EXPECT_FALSE(same(seen[0][1], seen[0][2]));  // the variants differ
}

TEST(VariantFit, ReconfigurationShrinksResidentSet) {
    const VariantFit mono = variant_fit(SystemVariant::MonolithicHw);
    const VariantFit reconf = variant_fit(SystemVariant::ReconfiguredHw);
    const VariantFit sw = variant_fit(SystemVariant::Software);
    EXPECT_LT(reconf.resident_slices, mono.resident_slices);
    EXPECT_LT(sw.resident_slices, reconf.resident_slices);
    ASSERT_TRUE(mono.fitted.has_value());
    ASSERT_TRUE(reconf.fitted.has_value());
    // The paper's headline: reconfiguration moves the fit to a smaller part.
    EXPECT_LT(fabric::part(*reconf.fitted).slices, fabric::part(*mono.fitted).slices);
}

// ---------------------------------------------------------------- campaigns

TEST(Campaign, ReportIsByteIdenticalAcrossThreadCounts) {
    const std::vector<Scenario> sweep = acceptance_sweep();
    ASSERT_GE(sweep.size(), 24u);

    const CampaignResult serial = CampaignRunner(1).run(sweep);
    const CampaignResult parallel4 = CampaignRunner(4).run(sweep);
    const CampaignResult parallel3 = CampaignRunner(3).run(sweep);

    const std::string json1 = CampaignReport::from(serial).render_json();
    const std::string json4 = CampaignReport::from(parallel4).render_json();
    const std::string json3 = CampaignReport::from(parallel3).render_json();
    EXPECT_EQ(json1, json4);
    EXPECT_EQ(json1, json3);
    EXPECT_EQ(CampaignReport::from(serial).render_text(),
              CampaignReport::from(parallel4).render_text());
    EXPECT_EQ(serial.failure_count(), 0u);
}

TEST(Campaign, FailingScenarioIsIsolated) {
    std::vector<Scenario> sweep =
        SweepBuilder{}
            .variants({SystemVariant::ReconfiguredHw})
            .ports({PortKind::Jcap, PortKind::JcapAccelerated})
            .noise_levels({1e-3, 2e-3})
            .cycles(1)
            .campaign_seed(5)
            .build();
    ASSERT_EQ(sweep.size(), 4u);
    sweep[1].cycles = 0;  // invalid: the runner's precondition will throw

    const CampaignResult result = CampaignRunner(2).run(sweep);
    ASSERT_EQ(result.outcomes.size(), 4u);
    EXPECT_EQ(result.failure_count(), 1u);
    EXPECT_FALSE(result.outcomes[1].ok);
    EXPECT_NE(result.outcomes[1].error.find("precondition"), std::string::npos);
    for (const std::size_t i : {0u, 2u, 3u}) {
        EXPECT_TRUE(result.outcomes[i].ok) << "scenario " << i;
        EXPECT_GT(result.outcomes[i].cycle_busy_ms, 0.0);
    }

    const CampaignReport report = CampaignReport::from(result);
    EXPECT_EQ(report.failure_count(), 1u);
    const std::string json = report.render_json();
    EXPECT_NE(json.find("\"failure_count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
}

TEST(Campaign, NonStandardThrowBecomesFailureRecord) {
    std::vector<Scenario> sweep = SweepBuilder{}
                                      .variants({SystemVariant::ReconfiguredHw})
                                      .noise_levels({1e-3, 2e-3})
                                      .cycles(1)
                                      .campaign_seed(9)
                                      .build();
    ASSERT_EQ(sweep.size(), 2u);

    // A scenario whose setup throws something outside the std::exception
    // hierarchy must still become a failure record instead of escaping into
    // the worker thread and taking the campaign down.
    CampaignOptions options;
    options.threads = 2;
    options.scenario_probe = [&](const Scenario& s) {
        if (s.name == sweep[1].name) throw 42;  // NOLINT: deliberately non-standard
    };
    const CampaignResult result = CampaignRunner(options).run(sweep);
    ASSERT_EQ(result.outcomes.size(), 2u);
    EXPECT_TRUE(result.outcomes[0].ok);
    EXPECT_FALSE(result.outcomes[1].ok);
    EXPECT_EQ(result.outcomes[1].error, "non-standard exception");
    EXPECT_EQ(result.failure_count(), 1u);
}

TEST(Campaign, OutcomesCarryPhysicallySensibleMetrics) {
    const std::vector<Scenario> sweep =
        SweepBuilder{}
            .variants({SystemVariant::MonolithicHw, SystemVariant::ReconfiguredHw})
            .parts({PartName::XC3S400})
            .cycles(3)
            .campaign_seed(11)
            .build();
    const CampaignResult result = CampaignRunner(2).run(sweep);
    ASSERT_EQ(result.failure_count(), 0u);

    const ScenarioOutcome* mono = nullptr;
    const ScenarioOutcome* reconf = nullptr;
    for (const ScenarioOutcome& o : result.outcomes) {
        if (o.scenario.variant == SystemVariant::MonolithicHw) mono = &o;
        if (o.scenario.variant == SystemVariant::ReconfiguredHw) reconf = &o;
    }
    ASSERT_NE(mono, nullptr);
    ASSERT_NE(reconf, nullptr);

    // Monolithic never reconfigures; the reconfigured system pays overhead.
    EXPECT_DOUBLE_EQ(mono->reconfig_ms_per_cycle, 0.0);
    EXPECT_GT(reconf->reconfig_ms_per_cycle, 0.0);
    EXPECT_GT(reconf->reconfig_energy_mj, 0.0);
    // The reconfigured resident set fits the XC3S400; monolithic does not
    // (the paper needs an XC3S1000 for it).
    EXPECT_TRUE(reconf->device_fits);
    EXPECT_FALSE(mono->device_fits);
    // Both measure the level to a few percent over the ramp.
    EXPECT_LT(reconf->level_error_mean, 0.05);
    EXPECT_GT(reconf->static_mw, 0.0);
    EXPECT_GT(reconf->dynamic_mw, 0.0);
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

TEST(Campaign, GroupsCoverEveryAxisValue) {
    const std::vector<Scenario> sweep = acceptance_sweep();
    const CampaignReport report =
        CampaignReport::from(CampaignRunner(2).run(sweep));

    // One group per axis value; each group counts every scenario carrying
    // that value (24 scenarios: 12 per variant, 8 per part).
    const std::string json = report.render_json();
    EXPECT_EQ(occurrences(json, "{\"axis\":\"variant\""), 2u);
    EXPECT_EQ(occurrences(json, "{\"axis\":\"part\""), 3u);
    EXPECT_EQ(occurrences(json, "{\"axis\":\"port\""), 2u);
    EXPECT_EQ(occurrences(json, "{\"axis\":\"noise\""), 2u);
    EXPECT_EQ(occurrences(json, "{\"axis\":\"upset_rate\""), 1u);
    EXPECT_EQ(occurrences(json, "\"value\":\"monolithic-hw\",\"scenarios\":12,"), 1u);
    EXPECT_EQ(occurrences(json, "\"value\":\"xc3s400\",\"scenarios\":8,"), 1u);

    const MetricSummary busy = report.summary("cycle_busy_ms");
    EXPECT_EQ(busy.count, sweep.size());
    EXPECT_GT(busy.mean, 0.0);
    EXPECT_LE(busy.min, busy.p50);
    EXPECT_LE(busy.p50, busy.p95);
    EXPECT_LE(busy.p95, busy.max);
}

}  // namespace
}  // namespace refpga::fleet
