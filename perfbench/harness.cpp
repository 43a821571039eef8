#include "harness.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace perfbench {

int SpanLog::open(std::string_view name) {
    Span span;
    span.name = std::string(name);
    span.job = job_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_s = seconds_since(epoch_);
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void SpanLog::close(int span) {
    spans_[static_cast<std::size_t>(span)].end_s = seconds_since(epoch_);
    // Scopes close innermost first, so `span` is on top of the stack.
    stack_.pop_back();
}

namespace {

/// Self time of every span: its duration minus its direct children's.
std::vector<double> self_times(const std::vector<SpanLog::Span>& spans) {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end_s - spans[i].start_s;
    for (const SpanLog::Span& s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    return self;
}

}  // namespace

double SpanLog::median_self_s(std::string_view name) const {
    const std::vector<double> self = self_times(spans_);
    std::map<int, double> per_job;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name) per_job[spans_[i].job] += self[i];
    std::vector<double> values;
    for (const auto& [job, seconds] : per_job) values.push_back(seconds);
    return median(std::move(values));
}

double SpanLog::median_root_coverage() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    std::vector<double> shares;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double length = spans_[i].end_s - spans_[i].start_s;
        if (spans_[i].parent < 0 && spans_[i].job >= 0 && length > 0.0)
            shares.push_back(covered[i] / length);
    }
    return median(std::move(shares));
}

std::string SpanLog::render_json() const {
    std::ostringstream out;
    out.precision(9);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"job\": " << s.job << ", \"parent\": " << s.parent
            << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s << "}";
    }
    out << "\n]}\n";
    return out.str();
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

}  // namespace perfbench
