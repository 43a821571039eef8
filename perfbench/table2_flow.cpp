// table2_flow: the §4.3 power flow behind Table 2, one full pass per job.
//
// Full system netlist (soft IP included) -> switching activity at 50 MHz ->
// pack -> initial placement on the XC3S1000 -> anneal -> route ->
// reallocate the 8 hottest nets. Everything the workload does not pin
// (activity engine, VCD round trip, router, reallocation engine) is left at
// the library default, so a change of default shows here unedited.
#include <sched.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "harness.hpp"
#include "refpga/app/activity.hpp"
#include "refpga/app/system.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/par/pack.hpp"
#include "refpga/par/placer.hpp"
#include "refpga/par/reallocate.hpp"
#include "refpga/par/router.hpp"

namespace perfbench {
namespace {

using namespace refpga;

constexpr double kClockHz = 50e6;
constexpr double kAnnealEffort = 0.05;
constexpr std::size_t kNetCount = 8;

/// Moves the calling thread to the next CPU it may run on, round-robin.
/// The vCPUs of a shared host differ in speed, and a one-thread job would
/// otherwise spend the whole run on whichever one the scheduler first
/// picked; rotating makes every run sample every CPU alike.
class CpuRotation {
public:
    CpuRotation() {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
        // Start where the scheduler put the process.
        next_ = static_cast<std::size_t>(
            std::find(cpus_.begin(), cpus_.end(), sched_getcpu()) - cpus_.begin());
    }

    void next() {
        if (cpus_.size() < 2) return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[next_++ % cpus_.size()], &set);
        (void)sched_setaffinity(0, sizeof set, &set);
    }

private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/// Canonical text of a reallocation report, for the digest.
std::string render(const par::ReallocateReport& report) {
    std::ostringstream out;
    out.precision(17);
    for (const par::NetPowerChange& n : report.nets)
        out << n.name << ' ' << n.before_uw << ' ' << n.after_uw << ' '
            << n.moved_logic << '\n';
    out << report.total_before_uw << ' ' << report.total_after_uw << ' '
        << report.critical_before_ps << ' ' << report.critical_after_ps << '\n';
    return out.str();
}

class Table2Flow final : public Workload {
public:
    explicit Table2Flow(const WorkloadOptions& options) : seed_(options.seed) {}

    // The check that every job agrees is made against the run's first job.
    std::string reference(SpanLog*) override { return {}; }
    void use_reference(std::string) override {}
    // The job builds all of its inputs itself.
    void setup() override {}

    JobOutcome run_job(SpanLog* spans) override {
        cpus_.next();
        std::optional<obs::Recorder> recorder;
        if (spans != nullptr) recorder.emplace();

        std::optional<app::SystemNetlist> sys;
        {
            Scope s(spans, "app.build_system_netlist");
            sys.emplace(app::build_system_netlist({}));
        }
        std::optional<sim::ActivityMap> activity;
        {
            Scope s(spans, "app.system_activity");
            activity.emplace(app::system_activity(sys->nl, kClockHz, {}));
        }
        std::optional<par::PackedDesign> packed;
        {
            Scope s(spans, "par.pack");
            packed.emplace(par::pack(sys->nl));
        }
        std::optional<fabric::Device> device;
        {
            Scope s(spans, "fabric.device");
            device.emplace(fabric::PartName::XC3S1000);
        }
        std::optional<par::Placement> placement;
        {
            Scope s(spans, "par.place_initial");
            placement.emplace(*device, sys->nl, *packed);
            placement->place_initial();
        }
        par::PlacerResult placer;
        {
            Scope s(spans, "par.anneal");
            par::PlacerOptions options;
            options.seed = seed_;
            options.effort = kAnnealEffort;
            placer = par::anneal(*placement, options);
        }
        std::optional<par::RoutedDesign> routed;
        {
            Scope s(spans, "par.route_all");
            routed.emplace(*placement, par::ChannelCapacity{});
            routed->route_all(par::RouteMode::Performance);
        }
        const long overflow = routed->overflow_count();
        par::ReallocateOptions options;
        options.net_count = kNetCount;
        options.recorder = recorder ? &*recorder : nullptr;
        par::ReallocateReport report;
        {
            Scope s(spans, "par.optimize_net_power");
            report = par::optimize_net_power(*placement, *routed, *activity, options);
        }

        JobOutcome outcome;
        outcome.scenarios = 1;
        check(report, options.timing_slack, outcome.failures);
        if (recorder) {
            const obs::MetricRegistry& m = recorder->metrics();
            const double commits = m.value("realloc.moves_committed_total");
            const double attempts = commits + m.value("realloc.moves_rejected_total");
            moves_tried_.push_back(static_cast<double>(placer.moves_tried));
            accept_ratio_.push_back(
                placer.moves_tried > 0
                    ? static_cast<double>(placer.moves_accepted) / placer.moves_tried
                    : 0.0);
            overflow_.push_back(static_cast<double>(overflow));
            candidates_.push_back(m.value("realloc.candidates_evaluated_total"));
            commit_ratio_.push_back(attempts > 0.0 ? commits / attempts : 0.0);
        }
        last_ = std::move(report);
        return outcome;
    }

    void layer_metrics(const SpanLog& spans, Values& out) const override {
        for (const char* stage :
             {"app.build_system_netlist", "app.system_activity", "par.pack",
              "fabric.device", "par.place_initial", "par.anneal", "par.route_all",
              "par.optimize_net_power"})
            out[std::string(stage) + "_s"] = spans.median_self_s(stage);
        out["par.anneal_moves_tried"] = median(moves_tried_);
        out["par.anneal_accept_ratio"] = median(accept_ratio_);
        out["par.route_overflow"] = median(overflow_);
        out["par.realloc_candidates"] = median(candidates_);
        out["par.realloc_commit_ratio"] = median(commit_ratio_);
    }

    void model_metrics(Values& out) const override {
        out["model.table2_dyn_before_uw"] = last_.total_before_uw;
        out["model.table2_dyn_after_uw"] = last_.total_after_uw;
        out["model.table2_critical_after_ps"] = last_.critical_after_ps;
        out["model.table2_nets_worsened"] = nets_worsened_;
    }

    [[nodiscard]] std::uint64_t report_digest() const override {
        return fnv1a(render(last_));
    }

    [[nodiscard]] double min_stage_coverage() const override { return 0.95; }

private:
    void check(const par::ReallocateReport& report, double timing_slack,
               std::vector<std::string>& failures) {
        if (!(report.total_after_uw <= report.total_before_uw))
            failures.push_back("total dynamic power increased");
        if (!(report.critical_after_ps <= timing_slack * report.critical_before_ps))
            failures.push_back("critical path outside the slack gate");
        // Not gated: the reallocator re-routes each hot net before trying
        // moves, and on today's overflowing routing that re-route can raise
        // the net's own power (2 of 8 anneal seeds, 2008 among them).
        // Reported as a count until routing is legal.
        nets_worsened_ = 0;
        for (const par::NetPowerChange& n : report.nets)
            if (!(n.after_uw <= n.before_uw)) ++nets_worsened_;
        if (!first_)
            first_ = report;
        else if (!(report == *first_))
            failures.push_back("report differs from the run's first job");
    }

    std::uint64_t seed_;
    CpuRotation cpus_;
    std::optional<par::ReallocateReport> first_;
    par::ReallocateReport last_;
    double nets_worsened_ = 0;  ///< optimised nets whose power rose
    // Per traced job.
    std::vector<double> moves_tried_, accept_ratio_, overflow_, candidates_,
        commit_ratio_;
};

}  // namespace

std::unique_ptr<Workload> make_table2_flow(const WorkloadOptions& options) {
    return std::make_unique<Table2Flow>(options);
}

}  // namespace perfbench
