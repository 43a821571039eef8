#include "refpga/fleet/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "refpga/common/contracts.hpp"
#include "refpga/common/table.hpp"
#include "refpga/fleet/outcome_codec.hpp"

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

/// '"key":{summary},...' over every metric column.
void append_summaries_json(std::ostream& os,
                           const std::vector<std::vector<double>>& columns) {
    const std::vector<std::string>& keys = metric_keys();
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const MetricSummary s = MetricSummary::of(columns[k]);
        os << (k ? "," : "") << "\"" << keys[k] << "\":{\"min\":" << fmt(s.min)
           << ",\"mean\":" << fmt(s.mean) << ",\"max\":" << fmt(s.max)
           << ",\"p50\":" << fmt(s.p50) << ",\"p95\":" << fmt(s.p95)
           << ",\"count\":" << s.count << "}";
    }
}

}  // namespace

CampaignReport CampaignReport::from(const CampaignResult& result) {
    CampaignReport report(result.outcomes.size(), "");
    if (!result.outcomes.empty()) report.add(0, result.outcomes);
    return report;
}

CampaignReport::CampaignReport(std::size_t scenario_count, std::string spool_path)
    : scenario_count_(scenario_count),
      spool_path_(std::move(spool_path)),
      widths_(Table::widths_of(scenario_table_header())),
      summary_values_(metric_keys().size()) {
    if (spool_path_.empty()) {
        spool_ = std::make_unique<std::stringstream>();
        return;
    }
    spool_ = std::make_unique<std::fstream>(
        spool_path_,
        std::ios::in | std::ios::out | std::ios::trunc | std::ios::binary);
    if (!*spool_)
        throw std::runtime_error("CampaignReport: cannot open spool file '" +
                                 spool_path_ + "'");
}

CampaignReport::~CampaignReport() {
    // A moved-from report has no stream and owns no file.
    if (spool_ == nullptr || spool_path_.empty()) return;
    spool_.reset();
    std::remove(spool_path_.c_str());
}

CampaignReport::CampaignReport(CampaignReport&&) = default;

void CampaignReport::add(std::size_t first, const std::vector<ScenarioOutcome>& batch) {
    REFPGA_EXPECTS(!batch.empty());
    REFPGA_EXPECTS(first + batch.size() <= scenario_count_);
    covered_.add(first, batch.size());  // throws on overlap before any commit

    std::iostream& spool = *spool_;
    spool.seekp(0, std::ios::end);
    const std::streamoff offset = spool.tellp();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        spool << encode_outcome_line(batch[i]) << '\n';
        reduce(first + i, batch[i]);
    }
    spool.flush();
    if (!spool)
        throw std::runtime_error("CampaignReport: spool write failed ('" +
                                 spool_path_ + "')");
    segments_.push_back({first, batch.size(), offset});
    max_retained_rows_ = std::max(max_retained_rows_, batch.size());
}

void CampaignReport::add_encoded(std::size_t first,
                                 const std::vector<std::string>& lines) {
    REFPGA_EXPECTS(!lines.empty());
    // Decode the whole batch before committing anything: a malformed line
    // must not leave a half-merged batch behind.
    std::vector<ScenarioOutcome> batch;
    batch.reserve(lines.size());
    for (const std::string& line : lines) batch.push_back(decode_outcome_line(line));
    add(first, batch);
}

void CampaignReport::reduce(std::size_t index, const ScenarioOutcome& o) {
    Table::grow_widths(widths_, scenario_row_cells(o));
    const std::vector<std::string>& keys = metric_keys();
    std::vector<double> values;
    if (o.ok) {
        for (const std::string& key : keys) values.push_back(outcome_metric(o, key));
        for (std::size_t k = 0; k < keys.size(); ++k)
            summary_values_[k].push_back(values[k]);
    } else {
        ++failures_;
    }

    for (std::size_t a = 0; a < std::size(kAxes); ++a) {
        auto key = std::make_pair(a, axis_value(o, kAxes[a]));
        auto it = group_index_.find(key);
        if (it == group_index_.end()) {
            GroupState g;
            g.axis = a;
            g.value = key.second;
            g.min_index = index;
            g.metric_values.resize(keys.size());
            groups_.push_back(std::move(g));
            it = group_index_.emplace(std::move(key), groups_.size() - 1).first;
        }
        GroupState& g = groups_[it->second];
        g.min_index = std::min(g.min_index, index);
        ++g.count;
        if (!o.ok) {
            ++g.failures;
            continue;
        }
        for (std::size_t k = 0; k < keys.size(); ++k)
            g.metric_values[k].push_back(values[k]);
    }
}

template <typename Fn>
void CampaignReport::for_each_committed(Fn&& fn) const {
    std::vector<const Segment*> ordered;
    ordered.reserve(segments_.size());
    for (const Segment& s : segments_) ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const Segment* a, const Segment* b) { return a->first < b->first; });

    std::iostream& spool = *spool_;
    spool.clear();
    std::string line;
    for (const Segment* seg : ordered) {
        spool.seekg(seg->offset);
        for (std::size_t i = 0; i < seg->count; ++i) {
            if (!std::getline(spool, line))
                throw std::runtime_error(
                    "CampaignReport: spool truncated mid-segment ('" +
                    spool_path_ + "')");
            fn(decode_outcome_line(line));
        }
    }
}

std::vector<const CampaignReport::GroupState*>
CampaignReport::ordered_groups() const {
    std::vector<const GroupState*> order;
    order.reserve(groups_.size());
    for (const GroupState& g : groups_) order.push_back(&g);
    std::sort(order.begin(), order.end(),
              [](const GroupState* a, const GroupState* b) {
                  return std::tie(a->axis, a->min_index) <
                         std::tie(b->axis, b->min_index);
              });
    return order;
}

MetricSummary CampaignReport::summary(std::string_view key) const {
    return MetricSummary::of(summary_values_[metric_index(key)]);
}

std::string CampaignReport::render_text() const {
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

    Table::emit_rule(os, widths_);
    Table::emit_row(os, widths_, scenario_table_header());
    Table::emit_rule(os, widths_);
    for_each_committed([&](const ScenarioOutcome& o) {
        Table::emit_row(os, widths_, scenario_row_cells(o));
    });
    Table::emit_rule(os, widths_);
    os << "\n";

    if (failures_ > 0) {
        os << "failures:\n";
        for_each_committed([&](const ScenarioOutcome& o) {
            if (!o.ok) os << "  " << o.scenario.name << ": " << o.error << "\n";
        });
        os << "\n";
    }

    const std::vector<std::string>& keys = metric_keys();
    Table summary_table({"metric", "min", "mean", "p50", "p95", "max"});
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const MetricSummary s = MetricSummary::of(summary_values_[k]);
        summary_table.add_row({keys[k], fmt(s.min), fmt(s.mean), fmt(s.p50),
                               fmt(s.p95), fmt(s.max)});
    }
    os << "summary over successful scenarios:\n" << summary_table.render() << "\n";

    const std::size_t err = metric_index("level_error_mean");
    const std::size_t mw = metric_index("total_mw");
    Table by_axis({"axis", "value", "scenarios", "failed", "mean level err",
                   "mean total (mW)"});
    for (const GroupState* g : ordered_groups())
        by_axis.add_row({std::string(kAxes[g->axis]), g->value,
                         std::to_string(g->count), std::to_string(g->failures),
                         fmt(MetricSummary::of(g->metric_values[err]).mean),
                         fmt(MetricSummary::of(g->metric_values[mw]).mean)});
    os << "grouped by sweep axis:\n" << by_axis.render();
    return os.str();
}

std::string CampaignReport::render_json() const {
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
    for_each_committed([&](const ScenarioOutcome& o) {
        os << sep;
        sep = ",";
        append_scenario_json(os, o);
    });
    os << "],\"summary\":{";
    append_summaries_json(os, summary_values_);
    os << "},\"groups\":[";
    sep = "";
    for (const GroupState* g : ordered_groups()) {
        os << sep << "{\"axis\":\"" << kAxes[g->axis] << "\",\"value\":\""
           << json_escape(g->value) << "\",\"scenarios\":" << g->count
           << ",\"failures\":" << g->failures << ",\"metrics\":{";
        append_summaries_json(os, g->metric_values);
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
