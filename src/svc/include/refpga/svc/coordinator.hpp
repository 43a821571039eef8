// Campaign coordinator: hands a job's scenario grid to worker processes one
// batch at a time, merges the streamed outcome batches, and journals
// progress. It expands the grid and builds the variant fits once, before
// its first fork, so every worker inherits both.
//
// One single-threaded poll() event loop owns everything: worker pipes, the
// optional HTTP observability endpoint, the checkpoint journal and the
// campaign report that merges the streamed batches. Workers are pure
// executors, so every consistency decision — exactly-once commits and
// requeueing after a crash — is made in one place with no locks.
//
// Lifecycle of a scenario index range:
//
//   pending ──Assign──▶ in-flight (one batch) ──Batch──▶ committed
//      ▲                        │                  (report + journal)
//      └────────────────────────┘
//    worker died: the whole batch is requeued at the front
//
// Each idle worker is given the next min(batch, remaining range) scenarios
// from the front of the pending queue, and its one Batch frame completes
// the assignment. A slow worker therefore delays the run by at most the one
// batch it holds, with no rebalancing protocol.
//
// One deadline supervises the fleet: a worker has progress_timeout_ms to
// deliver what it owes — the Batch of the assignment it holds, or its exit
// once its input pipe was closed. A worker that misses its deadline is
// SIGKILLed and takes the ordinary death path: its batch is requeued, and
// the restart budget decides whether the slot is reforked, at once. The
// drain, which closes every worker's input pipe, runs in the same poll loop
// as the run, so it is bounded by the same deadline.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "refpga/fleet/report.hpp"
#include "refpga/obs/obs.hpp"
#include "refpga/svc/http.hpp"
#include "refpga/svc/job.hpp"

namespace refpga::svc {

class WorkerFaults;

class CoordinatorError : public std::runtime_error {
public:
    explicit CoordinatorError(const std::string& what)
        : std::runtime_error(what) {}
};

struct CoordinatorOptions {
    /// Worker processes to fork (>= 1).
    int workers = 2;
    /// Campaign threads inside each worker.
    int worker_threads = 1;
    /// Scenarios per assignment — the unit of dispatch, commit and requeue.
    /// An assignment is shorter only where a pending range (the end of the
    /// grid, a resumed journal's gap) is.
    std::uint64_t batch = 8;

    /// Checkpoint journal path; empty disables checkpointing.
    std::string checkpoint_path;
    /// Resume from an existing journal at checkpoint_path instead of
    /// truncating it. The journal must match the job fingerprint.
    bool resume = false;
    /// Never read: the report holds its outcomes in memory. The field stays
    /// because perfbench/campaigns.cpp (the repo benchmark) sets it.
    std::string spool_path = "campaign.spool";

    /// Refork a worker that dies unexpectedly, up to max_worker_restarts
    /// per run (0 = never); its in-flight batch is requeued either way.
    int max_worker_restarts = 2;

    /// The deadline, in milliseconds (>= 1): a worker holding a batch must
    /// commit it within this long of the assignment, and a worker whose
    /// input pipe was closed must exit within this long of the close (or of
    /// its assignment, if it still holds a batch). A worker that misses it is
    /// SIGKILLed and its batch requeued. Size it above the slowest expected
    /// batch: a batch that outlives it is recomputed.
    int progress_timeout_ms = 10000;

    /// Fail the run once the alive fleet drops below this and the restart
    /// budget cannot restore it (unless partial_ok). 1 = complete on any
    /// surviving worker. Must not exceed workers.
    int min_workers = 1;
    /// When every worker is gone and restarts are exhausted, finish with
    /// whatever committed and mark the report (and result) partial instead
    /// of failing.
    bool partial_ok = false;

    /// Checkpoint durability policy: fsync the journal every n-th append
    /// and once after the final record (0 = never fsync; a torn tail is
    /// recoverable either way, fsync adds power-loss durability).
    std::uint64_t checkpoint_fsync_every_n = 0;

    /// Observability sinks (both optional).
    obs::Recorder* recorder = nullptr;
    /// Already-listening HTTP endpoint to serve on the event loop
    /// (/metrics, /healthz). Not owned.
    HttpEndpoint* http = nullptr;

    /// Graceful-shutdown flag (typically set by a SIGINT/SIGTERM handler).
    /// When it reads true the coordinator stops dispatching, drains
    /// in-flight batches (each within its deadline), finalizes the journal
    /// and returns with completed() == false; uncommitted scenarios stay
    /// uncommitted so a --resume run picks them up.
    const std::atomic<bool>* stop = nullptr;

    /// Workers are forked and run worker_main() in the child. Fork is the
    /// only launch path; the enum stays because perfbench/campaigns.cpp
    /// (the repo benchmark) sets it.
    enum class Launch { Fork };
    Launch launch = Launch::Fork;

    // --- test hooks ---------------------------------------------------------
    /// Behave as if `stop` turned true after this many committed batches.
    std::uint64_t stop_after_commits = 0;  ///< 0 = disabled
    /// Faults for each forked worker to run (svc::WorkerFaults in
    /// worker.hpp; null = none). Not owned; each child works on its own
    /// copy, made by the fork.
    WorkerFaults* worker_faults = nullptr;
};

struct CoordinatorResult {
    bool completed = false;       ///< full grid committed
    /// Run ended with workers exhausted under partial_ok: the report renders
    /// what committed, explicitly marked partial with its missing ranges.
    bool partial = false;
    std::string error;            ///< set when the run ended abnormally
    std::size_t scenarios_committed = 0;
    std::size_t scenarios_resumed = 0;  ///< committed via journal replay
    std::size_t failures = 0;
    std::uint64_t shards_dispatched = 0;  ///< assignments (one batch each)
    /// Always 0: there is no work stealing, since a worker never holds more
    /// than one batch. Kept because perfbench/campaigns.cpp (the repo
    /// benchmark) still reports it as svc.shards_stolen.
    std::uint64_t shards_stolen = 0;
    std::uint64_t shards_reassigned = 0;  ///< requeued after worker death
    std::uint64_t worker_restarts = 0;
    std::uint64_t checkpoint_records = 0;
    /// Outcome rows the report holds: every committed one. Kept because
    /// perfbench/campaigns.cpp (the repo benchmark) reports it as
    /// svc.max_retained_rows.
    std::size_t max_retained_rows = 0;

    // --- supervision ---------------------------------------------------------
    std::uint64_t deadline_kills = 0;     ///< reaped: missed the deadline
    std::uint64_t protocol_errors = 0;    ///< corrupt streams quarantined
};

class Coordinator {
public:
    /// Validates the job's grid (fleet::Sweep::validate) and the fleet
    /// policy (min_workers <= workers) before anything else, so an invalid
    /// spec or policy throws std::invalid_argument here and no worker is
    /// ever forked for it.
    Coordinator(JobSpec spec, CoordinatorOptions options);
    ~Coordinator();
    Coordinator(const Coordinator&) = delete;
    Coordinator& operator=(const Coordinator&) = delete;

    /// Runs the campaign to completion (or graceful stop / unrecoverable
    /// failure). May be called once per Coordinator.
    CoordinatorResult run();

    /// Report over everything committed so far; valid after run().
    [[nodiscard]] const fleet::CampaignReport& report() const;
    [[nodiscard]] fleet::CampaignReport& report();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace refpga::svc
