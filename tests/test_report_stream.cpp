// Merge semantics of the campaign report: a CampaignReport fed outcome
// batches in any partition and any arrival order must render the
// byte-identical report to CampaignReport::from over the whole result, and
// must reproduce the golden reports under tests/golden/ from every way of
// building it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "refpga/common/contracts.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/outcome_codec.hpp"
#include "refpga/fleet/report.hpp"
#include "refpga/fleet/scenario.hpp"

namespace refpga::fleet {
namespace {

using app::SystemVariant;
using fabric::PartName;

// Small but multi-axis sweep: two variants, two parts, two ports.
std::vector<Scenario> plain_sweep() {
    return SweepBuilder{}
        .variants({SystemVariant::MonolithicHw, SystemVariant::ReconfiguredHw})
        .parts({PartName::XC3S200, PartName::XC3S400})
        .ports({PortKind::Jcap, PortKind::JcapAccelerated})
        .cycles(2)
        .campaign_seed(404)
        .build();
}

// Fault-heavy sweep so the report carries the fault metric columns.
std::vector<Scenario> fault_sweep() {
    fault::FaultSpec defaults;
    defaults.load_corruption_prob = 0.10;
    defaults.glitch_prob_per_cycle = 0.10;
    return SweepBuilder{}
        .variants({SystemVariant::ReconfiguredHw})
        .ports({PortKind::Jcap, PortKind::Icap})
        .upset_rates({0.0, 0.2, 1.0})
        .fault_defaults(defaults)
        .cycles(4)
        .campaign_seed(405)
        .build();
}

CampaignResult run_reference(const std::vector<Scenario>& sweep) {
    return CampaignRunner(CampaignOptions(2)).run(sweep);
}

/// The outcomes of [first, first + count).
std::vector<ScenarioOutcome> slice_of(const CampaignResult& result, std::size_t first,
                                      std::size_t count) {
    const auto begin = result.outcomes.begin() + static_cast<std::ptrdiff_t>(first);
    return {begin, begin + static_cast<std::ptrdiff_t>(count)};
}

/// The coordinator's commit path for [first, first + count): each outcome
/// through the codec, given its scenario back from the sweep.
std::vector<ScenarioOutcome> through_codec(const CampaignResult& result,
                                           const std::vector<Scenario>& sweep,
                                           std::size_t first, std::size_t count) {
    std::vector<ScenarioOutcome> batch;
    for (std::size_t i = first; i < first + count; ++i) {
        ScenarioOutcome o = decode_outcome_line(encode_outcome_line(result.outcomes[i]));
        o.scenario = sweep[i];
        batch.push_back(std::move(o));
    }
    return batch;
}

/// Splits [0, n) into random contiguous batches and returns them in a
/// random arrival order.
std::vector<std::pair<std::size_t, std::size_t>> random_partition(
    std::size_t n, std::mt19937& rng) {
    std::vector<std::pair<std::size_t, std::size_t>> parts;
    std::size_t cursor = 0;
    while (cursor < n) {
        std::uniform_int_distribution<std::size_t> len(1, std::min<std::size_t>(
                                                              4, n - cursor));
        const std::size_t count = len(rng);
        parts.emplace_back(cursor, count);
        cursor += count;
    }
    std::shuffle(parts.begin(), parts.end(), rng);
    return parts;
}

void expect_identical_renderings(const CampaignResult& result,
                                 const std::string& metrics_json = "") {
    CampaignReport reference = CampaignReport::from(result);
    if (!metrics_json.empty()) reference.attach_metrics_json(metrics_json);
    const std::string want_text = reference.render_text();
    const std::string want_json = reference.render_json();

    std::mt19937 rng(20080808);
    for (int round = 0; round < 5; ++round) {
        CampaignReport acc(result.outcomes.size());
        if (!metrics_json.empty()) acc.attach_metrics_json(metrics_json);
        for (const auto& [first, count] :
             random_partition(result.outcomes.size(), rng)) {
            acc.add(first, slice_of(result, first, count));
        }
        ASSERT_TRUE(acc.complete());
        EXPECT_EQ(acc.render_text(), want_text) << "round " << round;
        EXPECT_EQ(acc.render_json(), want_json) << "round " << round;
    }
}

TEST(ReportStream, RandomPartitionsRenderIdenticalText) {
    expect_identical_renderings(run_reference(plain_sweep()));
}

TEST(ReportStream, FaultMetricsSurviveStreamingMerge) {
    expect_identical_renderings(run_reference(fault_sweep()));
}

TEST(ReportStream, AttachedObservabilityJsonIsPreserved) {
    expect_identical_renderings(run_reference(plain_sweep()),
                                "{\"metrics\":{\"demo\":1}}");
}

TEST(ReportStream, EncodedLinesCommitLikeDecodedOutcomes) {
    const std::vector<Scenario> sweep = plain_sweep();
    const CampaignResult result = run_reference(sweep);
    const std::string want = CampaignReport::from(result).render_text();

    CampaignReport acc(result.outcomes.size());
    // Commit the back half first: out-of-order batches.
    const std::size_t half = result.outcomes.size() / 2;
    acc.add(half, through_codec(result, sweep, half, result.outcomes.size() - half));
    acc.add(0, through_codec(result, sweep, 0, half));
    ASSERT_TRUE(acc.complete());
    EXPECT_EQ(acc.render_text(), want);
}

/// Every field the codec carries, compared bit for bit: reports derive
/// percentiles from these values, so any rounding would break byte-identity.
void expect_same_measurements(const ScenarioOutcome& back, const ScenarioOutcome& o) {
    const auto bits = [](double v) {
        std::uint64_t u = 0;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    EXPECT_EQ(back.ok, o.ok);
    EXPECT_EQ(back.error, o.error);
    EXPECT_EQ(bits(back.level_error_mean), bits(o.level_error_mean));
    EXPECT_EQ(bits(back.level_error_max), bits(o.level_error_max));
    EXPECT_EQ(bits(back.cycle_busy_ms), bits(o.cycle_busy_ms));
    EXPECT_EQ(bits(back.reconfig_ms_per_cycle), bits(o.reconfig_ms_per_cycle));
    EXPECT_EQ(bits(back.static_mw), bits(o.static_mw));
    EXPECT_EQ(bits(back.dynamic_mw), bits(o.dynamic_mw));
    EXPECT_EQ(bits(back.reconfig_energy_mj), bits(o.reconfig_energy_mj));
    EXPECT_EQ(back.upsets_injected, o.upsets_injected);
    EXPECT_EQ(back.upsets_detected, o.upsets_detected);
    EXPECT_EQ(back.columns_repaired, o.columns_repaired);
    EXPECT_EQ(back.load_retries, o.load_retries);
    EXPECT_EQ(back.load_failures, o.load_failures);
    EXPECT_EQ(back.rejected_cycles, o.rejected_cycles);
    EXPECT_EQ(back.fallback_cycles, o.fallback_cycles);
    EXPECT_EQ(bits(back.availability), bits(o.availability));
    EXPECT_EQ(bits(back.mttd_ms), bits(o.mttd_ms));
    EXPECT_EQ(bits(back.mttr_ms), bits(o.mttr_ms));
    EXPECT_EQ(bits(back.scrub_ms_per_cycle), bits(o.scrub_ms_per_cycle));
    EXPECT_EQ(back.resident_slices, o.resident_slices);
    EXPECT_EQ(back.fitted_part, o.fitted_part);
    EXPECT_EQ(back.device_fits, o.device_fits);
}

/// A failed outcome whose error text needs every kind of escape, and
/// extreme values in the fields a successful one would carry.
ScenarioOutcome awkward_outcome() {
    ScenarioOutcome o;
    o.scenario.name = "not encoded";
    o.ok = false;
    o.error = "bad \"quote\"\nnext line\x01 control, \\ and \xc2\xb5";
    o.level_error_mean = -0.0;
    o.level_error_max = std::numeric_limits<double>::infinity();
    o.cycle_busy_ms = std::numeric_limits<double>::denorm_min();
    o.reconfig_ms_per_cycle = std::numeric_limits<double>::max();
    o.static_mw = 1.0 / 3.0;
    o.dynamic_mw = -1e-300;
    o.upsets_injected = 9007199254740991;  // 2^53 - 1
    o.upsets_detected = -9007199254740991;
    o.load_failures = -1;
    o.resident_slices = 9007199254740991;
    o.fitted_part = "xc3s5000";
    o.device_fits = true;
    return o;
}

TEST(ReportStream, CodecRoundTripsEveryFieldBitExactly) {
    CampaignResult result = run_reference(fault_sweep());
    result.outcomes.push_back(awkward_outcome());
    for (const ScenarioOutcome& o : result.outcomes) {
        const std::string line = encode_outcome_line(o);
        const ScenarioOutcome back = decode_outcome_line(line);
        expect_same_measurements(back, o);
        // The line carries what was measured, never the scenario.
        EXPECT_EQ(line.find("\"name\""), std::string::npos) << line;
        EXPECT_EQ(back.scenario.name, "");
        EXPECT_EQ(back.scenario.seed, Scenario{}.seed);
    }
}

TEST(ReportStream, RendersFailedOutcomesOfAnyScenario) {
    // The runner turns a scenario that breaks its preconditions into a
    // failed outcome; the report must still hold and render it.
    std::vector<Scenario> sweep =
        SweepBuilder{}.noise_levels({1e-3, 2e-3}).cycles(1).campaign_seed(7).build();
    sweep[1].cycles = -3;
    const CampaignResult result = CampaignRunner(CampaignOptions(1)).run(sweep);
    ASSERT_FALSE(result.outcomes[1].ok);
    const std::string json = CampaignReport::from(result).render_json();
    EXPECT_NE(json.find("\"cycles\":-3,"), std::string::npos);
    EXPECT_NE(json.find("\"failure_count\":1"), std::string::npos);
}

TEST(ReportStream, CodecRejectsMalformedLines) {
    ScenarioOutcome o;
    o.ok = true;
    o.upsets_injected = 3;
    o.resident_slices = 1234;
    o.fitted_part = "xc3s400";
    const std::string line = encode_outcome_line(o);
    ASSERT_NO_THROW((void)decode_outcome_line(line));
    const auto edited = [&](std::string_view from, std::string_view to) {
        std::string text = line;
        const std::size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.replace(at, from.size(), to);
    };
    const std::vector<std::string> bad = {
        "",
        "[]",
        line.substr(0, line.size() / 2),
        line + "x",
        // A renamed, missing, extra and reordered key.
        edited("\"error\"", "\"errox\""),
        edited(",\"device_fits\":false", ""),
        edited("}", ",\"name\":\"s0\"}"),
        edited("\"ok\":true,\"error\":\"\"", "\"error\":\"\",\"ok\":true"),
        // Wrong value kinds.
        edited("\"ok\":true", "\"ok\":1"),
        edited("\"error\":\"\"", "\"error\":null"),
        edited("\"level_error_mean\":\"0x0p+0\"", "\"level_error_mean\":0"),
        edited("\"level_error_mean\":\"0x0p+0\"", "\"level_error_mean\":\"0x\""),
        edited("\"upsets_injected\":3", "\"upsets_injected\":\"3\""),
        // Non-integral and out-of-range counts.
        edited("\"upsets_injected\":3", "\"upsets_injected\":3.5"),
        edited("\"upsets_injected\":3", "\"upsets_injected\":1e300"),
        edited("\"upsets_injected\":3", "\"upsets_injected\":9007199254740992"),
        edited("\"resident_slices\":1234", "\"resident_slices\":-1"),
    };
    for (const std::string& text : bad)
        EXPECT_THROW((void)decode_outcome_line(text), CodecError) << text;
}

TEST(ReportStream, CodecMutationsDecodeOrThrowCodecError) {
    // Every prefix and every single-byte replacement of a valid line must
    // either decode or throw CodecError: the checkpoint loader and the
    // coordinator's quarantine recognise a bad line by that type alone.
    ScenarioOutcome ok = run_reference(fault_sweep()).outcomes.back();
    ASSERT_TRUE(ok.ok);
    ScenarioOutcome failed;
    failed.error = "bad \"quote\"\nnext line\x01 control";
    for (const ScenarioOutcome& o : {ok, failed}) {
        const std::string line = encode_outcome_line(o);
        std::size_t escaped = 0;
        const auto check = [&](const std::string& text) {
            try {
                (void)decode_outcome_line(text);
            } catch (const CodecError&) {
            } catch (const std::exception& e) {
                if (++escaped <= 3) ADD_FAILURE() << e.what() << " from " << text;
            } catch (...) {
                if (++escaped <= 3) ADD_FAILURE() << "non-standard throw from " << text;
            }
        };
        for (std::size_t n = 0; n <= line.size(); ++n) check(line.substr(0, n));
        for (std::size_t i = 0; i < line.size(); ++i) {
            std::string text = line;
            for (int b = 0; b < 256; ++b) {
                text[i] = static_cast<char>(b);
                check(text);
            }
        }
        EXPECT_EQ(escaped, 0u) << line;
    }
}

TEST(ReportStream, DuplicateCommitIsRejected) {
    const CampaignResult result = run_reference(plain_sweep());
    CampaignReport acc(result.outcomes.size());
    acc.add(0, {result.outcomes.begin(), result.outcomes.begin() + 2});
    EXPECT_THROW(acc.add(1, {result.outcomes.begin() + 1,
                             result.outcomes.begin() + 3}),
                 ContractViolation);
}

TEST(ReportStream, MarkPartialRendersExpectedCountAndMissingRanges) {
    const CampaignResult result = run_reference(plain_sweep());
    ASSERT_GE(result.outcomes.size(), 8u);

    // Commit [0, 3) and [5, 7) of an 8-scenario expectation, then declare
    // the run partial: both renderings must carry the expected count and the
    // exact gaps, so a degraded report can never pass for a complete one.
    CampaignReport acc(8);
    acc.add(0, {result.outcomes.begin(), result.outcomes.begin() + 3});
    acc.add(5, {result.outcomes.begin() + 5, result.outcomes.begin() + 7});
    ASSERT_FALSE(acc.complete());
    EXPECT_FALSE(acc.is_partial());
    acc.mark_partial();
    ASSERT_TRUE(acc.is_partial());

    const std::string text = acc.render_text();
    EXPECT_NE(text.find("campaign: 5 scenarios"), std::string::npos);
    EXPECT_NE(
        text.find("partial: 5/8 scenarios committed; missing: [3, 5) [7, 8)\n"),
        std::string::npos);
    const std::string json = acc.render_json();
    EXPECT_NE(
        json.find("\"partial\":{\"expected_count\":8,"
                  "\"missing_ranges\":[[3,5],[7,8]]}"),
        std::string::npos);
}

TEST(ReportStream, UnmarkedIncompleteReportOmitsPartialAnnotations) {
    const CampaignResult result = run_reference(plain_sweep());
    CampaignReport acc(8);
    acc.add(0, {result.outcomes.begin(), result.outcomes.begin() + 3});
    EXPECT_EQ(acc.render_text().find("partial:"), std::string::npos);
    EXPECT_EQ(acc.render_json().find("\"partial\""), std::string::npos);
}

// Sweeps far larger than anything a test can afford to execute: this one
// synthesizes 5000 outcomes, commits them in 64-row batches in reverse
// order, and must render every row in sweep order, byte-identical to
// CampaignReport::from over the same outcomes.
TEST(ReportStream, LargeSweepCommittedInReverseRendersInSweepOrder) {
    constexpr std::size_t kScenarios = 5000;
    constexpr std::size_t kBatch = 64;

    CampaignResult result;
    for (std::size_t i = 0; i < kScenarios; ++i) {
        ScenarioOutcome o;
        o.scenario.name = "synthetic-" + std::to_string(i);
        o.scenario.seed = i;
        o.scenario.noise_rms_v = 1e-3 * static_cast<double>(1 + i % 7);
        o.ok = i % 97 != 13;
        if (!o.ok) o.error = "synthetic failure " + std::to_string(i);
        o.level_error_mean = 1e-3 * static_cast<double>(i);
        o.cycle_busy_ms = static_cast<double>(i % 101);
        o.availability = 1.0;
        o.fitted_part = "xc3s400";
        o.device_fits = true;
        result.outcomes.push_back(o);
    }

    CampaignReport acc(kScenarios);
    std::size_t end = kScenarios;
    while (end > 0) {
        const std::size_t first = end > kBatch ? end - kBatch : 0;
        acc.add(first, slice_of(result, first, end - first));
        end = first;
    }
    ASSERT_TRUE(acc.complete());
    EXPECT_EQ(acc.committed(), kScenarios);

    const std::string text = acc.render_text();
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < kScenarios; ++i) {
        const std::size_t at =
            text.find("| synthetic-" + std::to_string(i) + " ", cursor);
        ASSERT_NE(at, std::string::npos) << "row " << i << " missing or out of order";
        cursor = at;
    }
    const CampaignReport reference = CampaignReport::from(result);
    EXPECT_EQ(text, reference.render_text());
    EXPECT_EQ(acc.render_json(), reference.render_json());
}

// ---------------------------------------------------------------- goldens
//
// tests/golden/report_*.{txt,json} pin the report bytes for
// golden_result(): complete with an attached obs document, partial with
// [3, 5) and [7, 8) missing, and an empty campaign. Every way of building a
// report — from(result), batches fed in random arrival order, outcomes
// through the codec with their scenarios attached from the grid — must
// reproduce them byte for byte; they change only with a
// deliberate change to the report format.

// Hand-built outcomes over an 8-scenario grid (2 variants x 2 ports x 2
// upset rates, one noise level of 1/300 V): one failed row whose error needs
// JSON escaping, fault metrics on every row, and awkward doubles (thirds,
// 1e-300, the smallest denormal) that only a bit-exact codec reproduces.
std::vector<Scenario> golden_grid() {
    fault::FaultSpec defaults;
    defaults.load_corruption_prob = 0.25;
    return SweepBuilder{}
        .variants({SystemVariant::MonolithicHw, SystemVariant::ReconfiguredHw})
        .ports({PortKind::Jcap, PortKind::Icap})
        .noise_levels({1.0 / 300.0})
        .upset_rates({0.0, 0.5})
        .fault_defaults(defaults)
        .cycles(3)
        .campaign_seed(2008)
        .build();
}

CampaignResult golden_result() {
    const std::vector<Scenario> grid = golden_grid();
    CampaignResult result;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        ScenarioOutcome o;
        o.scenario = grid[i];
        const auto n = static_cast<double>(i);
        const auto k = static_cast<long>(i);
        o.ok = i != 5;
        if (!o.ok) {
            o.error = "injected \"fault\"\n\tsecond line";
            result.outcomes.push_back(o);
            continue;
        }
        o.level_error_mean = (n + 1.0) / 3.0;
        o.level_error_max = 2.0 * (n + 1.0) / 3.0;
        o.cycle_busy_ms = 12.5 + n;
        o.reconfig_ms_per_cycle = i % 2 == 1 ? 0.0 : 37.25 / (n + 1.0);
        o.static_mw = 41.0 + 0.1 * n;
        o.dynamic_mw = i == 2 ? 1e-300 : 3.0 / (n + 7.0);
        o.reconfig_energy_mj = 0.01 * n;
        o.resident_slices = 1000 + 37 * i;
        o.fitted_part = i % 3 == 0 ? "" : "xc3s400";
        o.device_fits = i % 2 == 0;
        o.upsets_injected = k;
        o.upsets_detected = k / 2;
        o.columns_repaired = k / 2;
        o.load_retries = k % 3;
        o.load_failures = k % 2;
        o.rejected_cycles = k % 4 == 1 ? 1 : 0;
        o.fallback_cycles = k / 3;
        o.availability = 1.0 - n / 64.0;
        o.mttd_ms = i == 4 ? std::numeric_limits<double>::denorm_min() : 0.5 * n;
        o.mttr_ms = n / 3.0;
        o.scrub_ms_per_cycle = 0.125 * n;
        result.outcomes.push_back(o);
    }
    return result;
}

constexpr const char* kGoldenObsJson = "{\"metrics\":{\"counters\":{\"demo_total\":3}}}";

std::string golden(const std::string& name) {
    std::ifstream in(std::string(REFPGA_GOLDEN_DIR) + name, std::ios::binary);
    EXPECT_TRUE(in) << "missing golden file " << name;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void expect_golden(const CampaignReport& report, const std::string& stem) {
    EXPECT_EQ(report.render_text(), golden(stem + ".txt")) << stem;
    EXPECT_EQ(report.render_json(), golden(stem + ".json")) << stem;
}

TEST(ReportGolden, CompleteFromResult) {
    CampaignReport report = CampaignReport::from(golden_result());
    report.attach_metrics_json(kGoldenObsJson);
    expect_golden(report, "report_complete");
}

TEST(ReportGolden, CompleteFromBatchesInRandomArrivalOrder) {
    const CampaignResult result = golden_result();
    std::mt19937 rng(2008);
    for (int round = 0; round < 4; ++round) {
        CampaignReport report(result.outcomes.size());
        report.attach_metrics_json(kGoldenObsJson);
        for (const auto& [first, count] :
             random_partition(result.outcomes.size(), rng))
            report.add(first, slice_of(result, first, count));
        ASSERT_TRUE(report.complete());
        expect_golden(report, "report_complete");
    }
}

TEST(ReportGolden, CompleteFromEncodedLines) {
    const CampaignResult result = golden_result();
    const std::size_t n = result.outcomes.size();
    CampaignReport report(n);
    report.attach_metrics_json(kGoldenObsJson);
    report.add(n / 2, through_codec(result, golden_grid(), n / 2, n - n / 2));
    report.add(0, through_codec(result, golden_grid(), 0, n / 2));
    expect_golden(report, "report_complete");
}

TEST(ReportGolden, PartialAfterMarkPartial) {
    const CampaignResult result = golden_result();
    CampaignReport report(result.outcomes.size());
    report.add(5, slice_of(result, 5, 2));
    report.add(0, through_codec(result, golden_grid(), 0, 3));
    report.mark_partial();
    expect_golden(report, "report_partial");
}

TEST(ReportGolden, EmptyCampaign) {
    expect_golden(CampaignReport::from(CampaignResult{}), "report_empty");
    const CampaignReport report(0);
    EXPECT_TRUE(report.complete());
    expect_golden(report, "report_empty");
}

}  // namespace
}  // namespace refpga::fleet
