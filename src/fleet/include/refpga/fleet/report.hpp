// Campaign aggregation: per-metric distribution summaries, overall and per
// sweep axis, rendered as a text table and as machine-readable JSON.
//
// One CampaignReport serves every entry point. The in-process campaign
// builds it from a finished CampaignResult; the campaign service commits
// outcome batches into it as they arrive from worker processes, in any
// order. The report holds every committed outcome in memory, in a slot per
// sweep index, and derives everything else — the scenario table, the
// summaries and the per-axis groups — when it renders.
//
// Byte-identity: the renderings are pure functions of the committed
// outcomes in sweep order. All floats are formatted through one
// deterministic path and MetricSummary::of sorts before reducing, so
// neither arrival order, batch partition nor thread/worker count can leak
// into any rendered byte. Wall-clock facts (thread count, run time) are
// deliberately excluded from the report for the same reason.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "refpga/common/interval_set.hpp"
#include "refpga/fleet/campaign.hpp"

namespace refpga::fleet {

/// Distribution summary of one metric over the successful scenarios.
struct MetricSummary {
    double min = 0.0;
    double mean = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    std::size_t count = 0;

    /// Nearest-rank percentiles over `values` (order-insensitive).
    [[nodiscard]] static MetricSummary of(std::vector<double> values);
};

/// Metric keys summarized by the report, in rendering order.
[[nodiscard]] std::vector<std::string> report_metric_keys();

/// Reads one metric off an outcome by key; throws ContractViolation on an
/// unknown key.
[[nodiscard]] double outcome_metric(const ScenarioOutcome& outcome,
                                    std::string_view key);

class CampaignReport {
public:
    /// In-memory report over a finished campaign's outcomes.
    [[nodiscard]] static CampaignReport from(const CampaignResult& result);

    /// `scenario_count` is the full sweep size the report expects.
    explicit CampaignReport(std::size_t scenario_count);

    /// Commits the contiguous batch [first, first+batch.size()). Batches may
    /// arrive in any order; committing an index twice throws
    /// ContractViolation (the campaign service guarantees exactly-once
    /// delivery; a duplicate is a protocol bug, not mergeable data).
    void add(std::size_t first, std::vector<ScenarioOutcome> batch);

    [[nodiscard]] std::size_t committed() const { return covered_.count(); }
    [[nodiscard]] bool complete() const {
        return covered_.covers_exactly(scenario_count_);
    }
    [[nodiscard]] std::size_t failure_count() const { return failures_; }
    /// Committed index ranges (sorted, disjoint) — the coordinator journals
    /// and resumes from these.
    [[nodiscard]] const IntervalSet& covered() const { return covered_; }

    /// Declares the renderings partial: both formats then carry the
    /// expected scenario count and the exact missing index ranges, so a
    /// degraded run can never pass for a complete one. Set by the
    /// coordinator when a run finishes under partial_ok with workers
    /// exhausted. An unmarked incomplete report renders the committed
    /// subset without annotation.
    void mark_partial() { partial_ = true; }
    [[nodiscard]] bool is_partial() const { return partial_; }

    /// Embeds a pre-rendered obs JSON document (obs::Recorder::render_json)
    /// into render_json() as a top-level "observability" member. The base
    /// report stays a pure function of the outcomes — wall-clock metrics
    /// appear only when the caller opts in here. Pass an empty string to
    /// detach.
    void attach_metrics_json(std::string metrics_json) {
        metrics_json_ = std::move(metrics_json);
    }

    /// Summary of `key` over all successful committed scenarios.
    [[nodiscard]] MetricSummary summary(std::string_view key) const;

    [[nodiscard]] std::string render_text() const;
    [[nodiscard]] std::string render_json() const;

private:
    /// The committed outcomes in sweep-index order.
    [[nodiscard]] std::vector<const ScenarioOutcome*> committed_rows() const;

    std::size_t scenario_count_;
    /// One slot per sweep index; only the slots covered_ names are committed.
    std::vector<ScenarioOutcome> outcomes_;
    IntervalSet covered_;
    std::size_t failures_ = 0;
    bool partial_ = false;

    std::string metrics_json_;  ///< verbatim obs JSON; empty = omitted
};

}  // namespace refpga::fleet
