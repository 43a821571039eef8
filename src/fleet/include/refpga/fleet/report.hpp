// Campaign aggregation: per-metric distribution summaries, overall and per
// sweep axis, rendered as a text table and as machine-readable JSON.
//
// One CampaignReport serves every entry point. The in-process campaign
// builds it from a finished CampaignResult; the campaign service commits
// outcome batches into it as they arrive from worker processes, in any
// order. Each committed batch is appended to a spool (encoded via
// outcome_codec) and reduced on arrival into running state: per-metric
// value columns for the summary percentiles, per-axis group columns,
// text-table column widths and failure counts. Rendering streams the spool
// in sweep-index order, one decoded row at a time, so the rows held in
// memory at once never exceed the largest batch (max_retained_rows()).
//
// Byte-identity: the renderings are pure functions of the committed
// outcomes in sweep order. All floats are formatted through one
// deterministic path and MetricSummary::of sorts before reducing, so
// neither arrival order, batch partition nor thread/worker count can leak
// into any rendered byte. Wall-clock facts (thread count, run time) are
// deliberately excluded from the report for the same reason.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
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

    /// `scenario_count` is the full sweep size the report expects. A
    /// non-empty `spool_path` names a spool file that is created
    /// (truncated) here and deleted by the destructor; an empty path keeps
    /// the spool in memory. Throws std::runtime_error when the spool file
    /// cannot be opened.
    CampaignReport(std::size_t scenario_count, std::string spool_path);
    ~CampaignReport();

    CampaignReport(CampaignReport&&);
    CampaignReport(const CampaignReport&) = delete;
    CampaignReport& operator=(const CampaignReport&) = delete;
    CampaignReport& operator=(CampaignReport&&) = delete;

    /// Commits the contiguous batch [first, first+batch.size()). Batches may
    /// arrive in any order; committing an index twice throws
    /// ContractViolation (the campaign service guarantees exactly-once
    /// delivery; a duplicate is a protocol bug, not mergeable data).
    void add(std::size_t first, const std::vector<ScenarioOutcome>& batch);

    /// Same commit from already-encoded outcome lines (the coordinator feeds
    /// wire payloads and checkpoint records straight through). Throws
    /// CodecError on a malformed line; nothing is committed in that case.
    void add_encoded(std::size_t first, const std::vector<std::string>& lines);

    [[nodiscard]] std::size_t committed() const { return covered_.count(); }
    [[nodiscard]] bool complete() const {
        return covered_.covers_exactly(scenario_count_);
    }
    [[nodiscard]] std::size_t failure_count() const { return failures_; }
    /// Committed index ranges (sorted, disjoint) — the coordinator journals
    /// and resumes from these.
    [[nodiscard]] const IntervalSet& covered() const { return covered_; }

    /// High-water mark of decoded outcome rows held in memory at once: the
    /// largest batch committed so far (renders decode one row at a time).
    [[nodiscard]] std::size_t max_retained_rows() const {
        return max_retained_rows_;
    }
    /// Spool segments pending the final ordered merge (the merge backlog:
    /// out-of-order commits append segments; rendering drains them in index
    /// order).
    [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }

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
    struct Segment {
        std::size_t first = 0;
        std::size_t count = 0;
        std::streamoff offset = 0;  ///< byte offset into the spool
    };

    /// Per-group accumulated state; metric columns hold the successful
    /// scenarios' values in arrival order (summaries sort before reducing).
    struct GroupState {
        std::size_t axis = 0;  ///< index into the report's axis list
        std::string value;
        std::size_t min_index = 0;  ///< smallest member index (render order)
        std::size_t count = 0;
        std::size_t failures = 0;
        std::vector<std::vector<double>> metric_values;
    };

    void reduce(std::size_t index, const ScenarioOutcome& outcome);
    /// Streams the spool in index order, invoking `fn` per decoded outcome.
    template <typename Fn>
    void for_each_committed(Fn&& fn) const;
    /// Groups axis-major, then by first member index within an axis.
    [[nodiscard]] std::vector<const GroupState*> ordered_groups() const;

    std::size_t scenario_count_;
    std::string spool_path_;  ///< empty = in-memory spool
    std::unique_ptr<std::iostream> spool_;

    IntervalSet covered_;
    std::vector<Segment> segments_;
    std::size_t failures_ = 0;
    std::size_t max_retained_rows_ = 0;
    bool partial_ = false;

    std::vector<std::size_t> widths_;  ///< scenario-table column widths
    std::vector<std::vector<double>> summary_values_;  ///< per metric key
    std::vector<GroupState> groups_;
    std::map<std::pair<std::size_t, std::string>, std::size_t> group_index_;

    std::string metrics_json_;  ///< verbatim obs JSON; empty = omitted
};

}  // namespace refpga::fleet
