// Shared plumbing of the repo benchmark: the workload interface, the
// in-memory span log of the traced run, and the metric values a workload
// reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seed used when none is given, and the held-out seed a gain claim must
/// also hold on (never used while tuning a change).
constexpr std::uint64_t kDefaultSeed = 2008;
constexpr std::uint64_t kHeldOutSeed = 7919;

/// Spans the traced run records around each call the benchmark makes into a
/// layer's public API. Kept in memory; written out when the run ends.
class SpanLog {
public:
    struct Span {
        std::string name;
        int job = -1;     ///< job id; -1 for work outside a job
        int parent = -1;  ///< index of the enclosing span, -1 at the root
        double start_s = 0.0;
        double end_s = 0.0;
    };

    /// Spans opened from now on belong to `job`.
    void set_job(int job) { job_ = job; }
    int open(std::string_view name);
    void close(int span);

    /// Median over the jobs that record `name` of the job's summed self time
    /// (span minus its children) under that name; 0 when never recorded.
    [[nodiscard]] double median_self_s(std::string_view name) const;
    /// Median over jobs of the share of the root span covered by its direct
    /// children: how much of a job the stage spans account for.
    [[nodiscard]] double median_root_coverage() const;

    [[nodiscard]] std::string render_json() const;

private:
    std::vector<Span> spans_;
    std::vector<int> stack_;  ///< open spans, innermost last
    int job_ = -1;
    Clock::time_point epoch_ = Clock::now();
};

/// RAII span; inert when the log is null (the untraced run).
class Scope {
public:
    Scope(SpanLog* log, std::string_view name)
        : log_(log), span_(log != nullptr ? log->open(name) : -1) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
        if (log_ != nullptr) log_->close(span_);
    }

private:
    SpanLog* log_;
    int span_;
};

/// Metric values by name; units live in the catalogue in main.cpp.
using Values = std::map<std::string, double, std::less<>>;

/// Result of one job: scenarios it completed and the output checks it
/// failed (empty when every check passed).
struct JobOutcome {
    std::size_t scenarios = 0;
    std::vector<std::string> failures;
};

struct WorkloadOptions {
    std::uint64_t seed = kDefaultSeed;
    std::string workdir;  ///< scratch directory owned by this run
};

/// One benchmark workload. A set-up process runs reference(), setup() and
/// one warm-up job, and hands the reference bytes on in a file. The
/// measuring process takes them with use_reference() (or runs reference()
/// itself), then runs setup(), an untimed warm-up job and timed jobs back
/// to back.
class Workload {
public:
    virtual ~Workload() = default;

    /// Computes what the output checks compare against and returns it as
    /// bytes. On the traced run `spans` is set, and serial prologues are
    /// timed here.
    virtual std::string reference(SpanLog* spans) = 0;
    /// Takes the bytes reference() returned in another process.
    virtual void use_reference(std::string bytes) = 0;
    /// Builds the job inputs.
    virtual void setup() = 0;
    /// Runs one job. `spans` is set on traced jobs, which also attach an
    /// obs::Recorder through the layer's own options.
    virtual JobOutcome run_job(SpanLog* spans) = 0;
    /// Per-layer metrics gathered over the traced jobs.
    virtual void layer_metrics(const SpanLog& spans, Values& out) const = 0;
    /// Modelled (simulated) statistics of the last job.
    virtual void model_metrics(Values& out) const = 0;
    /// Share of a traced job its stage spans must cover; less fails the run.
    [[nodiscard]] virtual double min_stage_coverage() const { return 0.0; }
    /// FNV-1a digest of the last job's report.
    [[nodiscard]] virtual std::uint64_t report_digest() const = 0;
};

std::unique_ptr<Workload> make_table2_flow(const WorkloadOptions& options);
std::unique_ptr<Workload> make_campaign_hw(const WorkloadOptions& options);
std::unique_ptr<Workload> make_campaign_svc_mixed(const WorkloadOptions& options);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

}  // namespace perfbench
