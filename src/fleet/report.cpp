#include "refpga/fleet/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "refpga/common/contracts.hpp"
#include "refpga/common/json.hpp"
#include "refpga/common/table.hpp"

namespace refpga::fleet {

MetricSummary MetricSummary::of(std::vector<double> values) {
    MetricSummary s;
    s.count = values.size();
    if (values.empty()) return s;
    std::sort(values.begin(), values.end());
    s.min = values.front();
    s.max = values.back();
    double sum = 0.0;
    for (const double v : values) sum += v;
    s.mean = sum / static_cast<double>(values.size());
    const auto nearest_rank = [&](double q) {
        const auto n = static_cast<double>(values.size());
        auto idx = static_cast<std::size_t>(std::ceil(q * n));
        if (idx > 0) --idx;
        if (idx >= values.size()) idx = values.size() - 1;
        return values[idx];
    };
    s.p50 = nearest_rank(0.50);
    s.p95 = nearest_rank(0.95);
    return s;
}

std::vector<std::string> report_metric_keys() {
    return {"level_error_mean", "level_error_max",     "cycle_busy_ms",
            "reconfig_ms_per_cycle", "reconfig_energy_mj", "static_mw",
            "dynamic_mw",        "total_mw",           "availability",
            "scrub_ms_per_cycle", "mttd_ms",           "mttr_ms",
            "upsets_injected",   "upsets_detected",    "columns_repaired",
            "load_retries",      "fallback_cycles",    "rejected_cycles"};
}

double outcome_metric(const ScenarioOutcome& o, std::string_view key) {
    if (key == "level_error_mean") return o.level_error_mean;
    if (key == "level_error_max") return o.level_error_max;
    if (key == "cycle_busy_ms") return o.cycle_busy_ms;
    if (key == "reconfig_ms_per_cycle") return o.reconfig_ms_per_cycle;
    if (key == "reconfig_energy_mj") return o.reconfig_energy_mj;
    if (key == "static_mw") return o.static_mw;
    if (key == "dynamic_mw") return o.dynamic_mw;
    if (key == "total_mw") return o.total_mw();
    if (key == "availability") return o.availability;
    if (key == "scrub_ms_per_cycle") return o.scrub_ms_per_cycle;
    if (key == "mttd_ms") return o.mttd_ms;
    if (key == "mttr_ms") return o.mttr_ms;
    if (key == "upsets_injected") return static_cast<double>(o.upsets_injected);
    if (key == "upsets_detected") return static_cast<double>(o.upsets_detected);
    if (key == "columns_repaired") return static_cast<double>(o.columns_repaired);
    if (key == "load_retries") return static_cast<double>(o.load_retries);
    if (key == "fallback_cycles") return static_cast<double>(o.fallback_cycles);
    if (key == "rejected_cycles") return static_cast<double>(o.rejected_cycles);
    REFPGA_EXPECTS(false && "unknown report metric key");
    return 0.0;
}

namespace {

/// Sweep axes reports group by, in grouping/rendering order.
constexpr std::string_view kAxes[] = {"variant", "part", "port", "noise",
                                      "upset_rate"};

const std::vector<std::string>& metric_keys() {
    static const std::vector<std::string> keys = report_metric_keys();
    return keys;
}

std::size_t metric_index(std::string_view key) {
    const std::vector<std::string>& keys = metric_keys();
    const auto it = std::find(keys.begin(), keys.end(), key);
    REFPGA_EXPECTS(it != keys.end() && "unknown report metric key");
    return static_cast<std::size_t>(it - keys.begin());
}

/// One deterministic float-to-text path for every number in both renderings.
std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/// Grouping value of one outcome on one axis.
std::string axis_value(const ScenarioOutcome& o, std::string_view axis) {
    const Scenario& s = o.scenario;
    if (axis == "variant") return app::variant_name(s.variant);
    if (axis == "part") return std::string(fabric::part(s.part).id);
    if (axis == "port") return port_kind_name(s.port);
    if (axis == "noise") return fmt(s.noise_rms_v);
    if (axis == "upset_rate") return fmt(s.fault.upset_rate_per_column_s);
    REFPGA_EXPECTS(false && "unknown sweep axis");
    return {};
}

std::vector<std::string> scenario_table_header() {
    return {"scenario", "status", "level err", "busy (ms)", "reconfig (ms/cyc)",
            "static (mW)", "dynamic (mW)", "avail", "fit part"};
}

std::vector<std::string> scenario_row_cells(const ScenarioOutcome& o) {
    if (!o.ok)
        return {o.scenario.name, "FAILED", "-", "-", "-", "-", "-", "-", "-"};
    return {o.scenario.name, o.device_fits ? "ok" : "ok (no fit)",
            fmt(o.level_error_mean), Table::num(o.cycle_busy_ms, 3),
            Table::num(o.reconfig_ms_per_cycle, 3), Table::num(o.static_mw, 1),
            Table::num(o.dynamic_mw, 2), Table::num(o.availability, 3),
            o.fitted_part.empty() ? "none" : o.fitted_part};
}

void append_scenario_json(std::ostream& os, const ScenarioOutcome& o) {
    const Scenario& s = o.scenario;
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"variant\":\""
       << app::variant_name(s.variant) << "\",\"part\":\""
       << fabric::part(s.part).id << "\",\"port\":\"" << port_kind_name(s.port)
       << "\",\"noise_rms_v\":" << fmt(s.noise_rms_v)
       << ",\"upset_rate_per_column_s\":" << fmt(s.fault.upset_rate_per_column_s)
       << ",\"fill\":["
       << fmt(s.fill.start_level) << "," << fmt(s.fill.end_level)
       << "],\"cycles\":" << s.cycles << ",\"seed\":" << s.seed
       << ",\"ok\":" << (o.ok ? "true" : "false");
    if (!o.ok) {
        os << ",\"error\":\"" << json_escape(o.error) << "\"}";
        return;
    }
    os << ",\"metrics\":{";
    const std::vector<std::string>& keys = metric_keys();
    for (std::size_t k = 0; k < keys.size(); ++k)
        os << (k ? "," : "") << "\"" << keys[k]
           << "\":" << fmt(outcome_metric(o, keys[k]));
    os << "},\"resident_slices\":" << o.resident_slices << ",\"fitted_part\":\""
       << json_escape(o.fitted_part)
       << "\",\"device_fits\":" << (o.device_fits ? "true" : "false") << "}";
}

/// Every metric's summary over the successful outcomes among `rows`, in
/// report_metric_keys() order.
std::vector<MetricSummary> summarize(const std::vector<const ScenarioOutcome*>& rows) {
    std::vector<MetricSummary> summaries;
    for (const std::string& key : metric_keys()) {
        std::vector<double> values;
        for (const ScenarioOutcome* o : rows)
            if (o->ok) values.push_back(outcome_metric(*o, key));
        summaries.push_back(MetricSummary::of(std::move(values)));
    }
    return summaries;
}

/// '"key":{summary},...' over every metric.
void append_summaries_json(std::ostream& os,
                           const std::vector<MetricSummary>& summaries) {
    const std::vector<std::string>& keys = metric_keys();
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const MetricSummary& s = summaries[k];
        os << (k ? "," : "") << "\"" << keys[k] << "\":{\"min\":" << fmt(s.min)
           << ",\"mean\":" << fmt(s.mean) << ",\"max\":" << fmt(s.max)
           << ",\"p50\":" << fmt(s.p50) << ",\"p95\":" << fmt(s.p95)
           << ",\"count\":" << s.count << "}";
    }
}

/// The committed outcomes that share one value on one sweep axis.
struct Group {
    std::string_view axis;
    std::string value;
    std::vector<const ScenarioOutcome*> members;  ///< in sweep order
    std::size_t failures = 0;
};

/// Groups axis-major, then by first member in sweep order.
std::vector<Group> group_by_axis(const std::vector<const ScenarioOutcome*>& rows) {
    std::vector<Group> groups;
    for (const std::string_view axis : kAxes) {
        std::map<std::string, std::size_t> position;  ///< value -> index in groups
        for (const ScenarioOutcome* o : rows) {
            const auto [it, fresh] =
                position.try_emplace(axis_value(*o, axis), groups.size());
            if (fresh) groups.push_back({axis, it->first, {}, 0});
            Group& g = groups[it->second];
            g.members.push_back(o);
            if (!o->ok) ++g.failures;
        }
    }
    return groups;
}

}  // namespace

CampaignReport CampaignReport::from(const CampaignResult& result) {
    CampaignReport report(result.outcomes.size());
    if (!result.outcomes.empty()) report.add(0, result.outcomes);
    return report;
}

CampaignReport::CampaignReport(std::size_t scenario_count)
    : scenario_count_(scenario_count), outcomes_(scenario_count) {}

void CampaignReport::add(std::size_t first, std::vector<ScenarioOutcome> batch) {
    REFPGA_EXPECTS(!batch.empty());
    REFPGA_EXPECTS(first + batch.size() <= scenario_count_);
    covered_.add(first, batch.size());  // throws on overlap before any commit
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!batch[i].ok) ++failures_;
        outcomes_[first + i] = std::move(batch[i]);
    }
}

std::vector<const ScenarioOutcome*> CampaignReport::committed_rows() const {
    std::vector<const ScenarioOutcome*> rows;
    rows.reserve(committed());
    for (const IntervalSet::Interval& iv : covered_.intervals())
        for (std::size_t i = iv.first; i < iv.last; ++i) rows.push_back(&outcomes_[i]);
    return rows;
}

MetricSummary CampaignReport::summary(std::string_view key) const {
    return summarize(committed_rows())[metric_index(key)];
}

std::string CampaignReport::render_text() const {
    const std::vector<const ScenarioOutcome*> rows = committed_rows();
    std::ostringstream os;
    os << "campaign: " << committed() << " scenarios, " << committed() - failures_
       << " ok, " << failures_ << " failed\n";
    if (partial_) {
        os << "partial: " << committed() << "/" << scenario_count_
           << " scenarios committed; missing:";
        for (const IntervalSet::Interval& iv : covered_.missing(scenario_count_))
            os << " [" << iv.first << ", " << iv.last << ")";
        os << "\n";
    }
    os << "\n";

    Table scenarios(scenario_table_header());
    for (const ScenarioOutcome* o : rows) scenarios.add_row(scenario_row_cells(*o));
    os << scenarios.render() << "\n";

    if (failures_ > 0) {
        os << "failures:\n";
        for (const ScenarioOutcome* o : rows)
            if (!o->ok) os << "  " << o->scenario.name << ": " << o->error << "\n";
        os << "\n";
    }

    const std::vector<std::string>& keys = metric_keys();
    const std::vector<MetricSummary> overall = summarize(rows);
    Table summary_table({"metric", "min", "mean", "p50", "p95", "max"});
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const MetricSummary& s = overall[k];
        summary_table.add_row({keys[k], fmt(s.min), fmt(s.mean), fmt(s.p50),
                               fmt(s.p95), fmt(s.max)});
    }
    os << "summary over successful scenarios:\n" << summary_table.render() << "\n";

    const std::size_t err = metric_index("level_error_mean");
    const std::size_t mw = metric_index("total_mw");
    Table by_axis({"axis", "value", "scenarios", "failed", "mean level err",
                   "mean total (mW)"});
    for (const Group& g : group_by_axis(rows)) {
        const std::vector<MetricSummary> s = summarize(g.members);
        by_axis.add_row({std::string(g.axis), g.value,
                         std::to_string(g.members.size()),
                         std::to_string(g.failures), fmt(s[err].mean),
                         fmt(s[mw].mean)});
    }
    os << "grouped by sweep axis:\n" << by_axis.render();
    return os.str();
}

std::string CampaignReport::render_json() const {
    const std::vector<const ScenarioOutcome*> rows = committed_rows();
    std::ostringstream os;
    os << "{\"campaign\":{\"scenario_count\":" << committed()
       << ",\"ok_count\":" << committed() - failures_
       << ",\"failure_count\":" << failures_;
    if (partial_) {
        os << ",\"partial\":{\"expected_count\":" << scenario_count_
           << ",\"missing_ranges\":[";
        const char* sep = "";
        for (const IntervalSet::Interval& iv : covered_.missing(scenario_count_)) {
            os << sep << "[" << iv.first << "," << iv.last << "]";
            sep = ",";
        }
        os << "]}";
    }
    os << "},\"scenarios\":[";
    const char* sep = "";
    for (const ScenarioOutcome* o : rows) {
        os << sep;
        sep = ",";
        append_scenario_json(os, *o);
    }
    os << "],\"summary\":{";
    append_summaries_json(os, summarize(rows));
    os << "},\"groups\":[";
    sep = "";
    for (const Group& g : group_by_axis(rows)) {
        os << sep << "{\"axis\":\"" << g.axis << "\",\"value\":\""
           << json_escape(g.value) << "\",\"scenarios\":" << g.members.size()
           << ",\"failures\":" << g.failures << ",\"metrics\":{";
        append_summaries_json(os, summarize(g.members));
        os << "}}";
        sep = ",";
    }
    os << "]";
    // The obs block is verbatim-embedded JSON from obs::Recorder; it carries
    // wall-clock facts, so it only appears when explicitly attached.
    if (!metrics_json_.empty()) os << ",\"observability\":" << metrics_json_;
    os << "}";
    return os.str();
}

}  // namespace refpga::fleet
