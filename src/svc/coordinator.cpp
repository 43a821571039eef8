#include "refpga/svc/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "refpga/common/contracts.hpp"
#include "refpga/common/log.hpp"
#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/outcome_codec.hpp"
#include "refpga/svc/checkpoint.hpp"
#include "refpga/svc/wire.hpp"
#include "refpga/svc/worker.hpp"

namespace refpga::svc {

namespace {

[[nodiscard]] std::int64_t now_ms() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Contiguous scenario range: one awaiting assignment, or the one batch a
/// worker holds.
struct Range {
    std::uint64_t first = 0;
    std::uint64_t end = 0;  ///< exclusive

    [[nodiscard]] std::uint64_t count() const { return end - first; }
};

struct WorkerProc {
    pid_t pid = -1;
    int to_fd = -1;    ///< coordinator → worker
    int from_fd = -1;  ///< worker → coordinator
    FrameReader reader;
    bool alive = false;
    int slot = 0;        ///< stable index in the fleet
    int generation = 0;  ///< process incarnation of this slot
    std::optional<Range> shard;  ///< in-flight batch, if any
    /// When the worker must have delivered what it owes: the Batch of the
    /// shard it holds, or its exit once its input pipe is closed (-1 =
    /// owes nothing).
    std::int64_t deadline_ms = -1;

    /// Closes the input pipe: the worker reads EOF once it is idle.
    void close_input() {
        if (to_fd >= 0) ::close(to_fd);
        to_fd = -1;
    }

    void close_fds() {
        close_input();
        if (from_fd >= 0) ::close(from_fd);
        from_fd = -1;
    }
};

struct SvcObs {
    obs::Recorder* rec = nullptr;
    obs::MetricId dispatched, reassigned, restarts, checkpoints, committed,
        workers, deadline_kills, protocol_errors;
};

SvcObs make_svc_obs(obs::Recorder* rec) {
    SvcObs o;
    o.rec = rec;
    if (rec == nullptr) return o;
    obs::MetricRegistry& m = rec->metrics();
    o.dispatched = m.counter("svc.shards_dispatched_total");
    o.reassigned = m.counter("svc.shards_reassigned_total");
    o.restarts = m.counter("svc.worker_restarts_total");
    o.checkpoints = m.counter("svc.checkpoint_writes_total");
    o.committed = m.counter("svc.scenarios_committed_total");
    o.workers = m.gauge("svc.workers_alive");
    o.deadline_kills = m.counter("svc.deadline_kills_total");
    o.protocol_errors = m.counter("svc.protocol_errors_total");
    return o;
}

}  // namespace

struct Coordinator::Impl {
    JobSpec spec;
    CoordinatorOptions options;
    std::size_t grid = 0;
    /// The expanded grid, built before the first fork: workers inherit it.
    std::vector<fleet::Scenario> scenarios;

    fleet::CampaignReport report{0};
    std::optional<CheckpointWriter> checkpoint;
    std::vector<WorkerProc> workers;
    std::deque<Range> pending;
    SvcObs obs;
    CoordinatorResult result;

    std::uint64_t commits = 0;  ///< batches committed this run
    bool stopping = false;       ///< stop requested; drain and return
    bool draining = false;       ///< input pipes closed; no more restarts
    bool partial_finish = false; ///< fleet exhausted under partial_ok
    bool ran = false;

    explicit Impl(JobSpec s, CoordinatorOptions o)
        : spec(std::move(s)), options(std::move(o)) {
        spec.validate();
        // A fleet that starts below min_workers can never satisfy it.
        if (options.min_workers > options.workers)
            throw std::invalid_argument(
                "min_workers (" + std::to_string(options.min_workers) +
                ") exceeds workers (" + std::to_string(options.workers) + ")");
        REFPGA_EXPECTS(options.workers >= 1);
        REFPGA_EXPECTS(options.worker_threads >= 1);
        REFPGA_EXPECTS(options.batch >= 1);
        REFPGA_EXPECTS(options.progress_timeout_ms >= 1);
        REFPGA_EXPECTS(options.min_workers >= 1);
        grid = spec.grid_size();
        report = fleet::CampaignReport(grid);
        obs = make_svc_obs(options.recorder);
    }

    ~Impl() {
        for (WorkerProc& w : workers) {
            if (w.alive && w.pid > 0) ::kill(w.pid, SIGKILL);
            w.close_fds();
            if (w.pid > 0) ::waitpid(w.pid, nullptr, 0);
        }
    }

    // --- setup -------------------------------------------------------------

    void open_journal() {
        if (options.checkpoint_path.empty()) return;
        const std::uint64_t fp = spec.fingerprint();
        if (options.resume) {
            CheckpointContents contents =
                load_checkpoint(options.checkpoint_path, fp, grid);
            for (CheckpointBatch& batch : contents.batches) {
                result.scenarios_resumed += batch.outcomes.size();
                commit(batch.first, std::move(batch.outcomes));
            }
            checkpoint.emplace(
                CheckpointWriter::resume(options.checkpoint_path, contents));
            if (contents.torn_tail)
                log_warning("svc: dropped torn record at checkpoint tail");
        } else {
            checkpoint.emplace(options.checkpoint_path, fp, grid);
        }
        checkpoint->set_fsync_every(options.checkpoint_fsync_every_n);
    }

    /// Commits decoded outcomes of [first, first + batch.size()), each given
    /// its scenario from the grid: outcome lines carry only measurements.
    void commit(std::uint64_t first, std::vector<fleet::ScenarioOutcome> batch) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            batch[i].scenario = scenarios[first + i];
        report.add(first, std::move(batch));
    }

    void seed_pending() {
        for (const IntervalSet::Interval& gap :
             report.covered().missing(grid))
            pending.push_back(Range{gap.first, gap.last});
    }

    void spawn_worker(WorkerProc& w) {
        int to_pipe[2];    // coordinator writes, worker reads
        int from_pipe[2];  // worker writes, coordinator reads
        if (::pipe(to_pipe) != 0 || ::pipe(from_pipe) != 0)
            throw CoordinatorError(std::string("pipe: ") + std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0)
            throw CoordinatorError(std::string("fork: ") + std::strerror(errno));
        if (pid == 0) {
            // Child. Keep only the worker ends open.
            ::close(to_pipe[1]);
            ::close(from_pipe[0]);
            for (const WorkerProc& other : workers) {
                if (other.to_fd >= 0) ::close(other.to_fd);
                if (other.from_fd >= 0) ::close(other.from_fd);
            }
            // The coordinator ends a worker by closing its input pipe or by
            // the deadline's SIGKILL; a terminal's Ctrl-C reaches the whole
            // process group and must not kill a batch that can still drain
            // into the checkpoint.
            ::signal(SIGINT, SIG_IGN);
            ::signal(SIGTERM, SIG_IGN);
            // Only the coordinator serves /metrics; a worker that outlives
            // it must not keep the port bound.
            if (options.http != nullptr) options.http->close();
            if (options.worker_faults != nullptr)
                options.worker_faults->start(w.slot, w.generation);
            fleet::CampaignOptions campaign(options.worker_threads);
            campaign.stream_block_ticks = spec.stream_block_ticks;
            // Leave via _exit so no parent-inherited atexit/teardown runs
            // twice.
            _exit(worker_main(to_pipe[0], from_pipe[1], scenarios, campaign,
                              options.worker_faults));
        }
        // Parent.
        ::close(to_pipe[0]);
        ::close(from_pipe[1]);
        w.pid = pid;
        w.to_fd = to_pipe[1];
        w.from_fd = from_pipe[0];
        w.reader = FrameReader{};
        w.alive = true;
        w.shard.reset();
        w.deadline_ms = -1;
    }

    [[nodiscard]] int alive_workers() const {
        int n = 0;
        for (const WorkerProc& w : workers) n += w.alive ? 1 : 0;
        return n;
    }

    [[nodiscard]] bool restart_budget_left() const {
        return result.worker_restarts <
               static_cast<std::uint64_t>(options.max_worker_restarts);
    }

    void update_gauges() {
        if (obs.rec == nullptr) return;
        obs.rec->metrics().set(obs.workers, static_cast<double>(alive_workers()));
    }

    void count(obs::MetricId id, double delta = 1.0) {
        if (obs.rec != nullptr) obs.rec->metrics().add(id, delta);
    }

    // --- dispatch ----------------------------------------------------------

    void assign_next(WorkerProc& w) {
        Range& range = pending.front();
        const std::uint64_t count_n = std::min(options.batch, range.count());
        const Range shard{range.first, range.first + count_n};
        // The write goes first: it throws WireError when the worker is
        // already dead (EPIPE), and at that point the range must still be
        // intact in `pending` — carving it out before a failed write would
        // leak it (not pending, not in any shard) and the run would wait
        // forever for indices nobody owns.
        write_frame(w.to_fd, MsgType::Assign,
                    std::to_string(shard.first) + ' ' + std::to_string(count_n));
        range.first += count_n;
        if (range.count() == 0) pending.pop_front();
        w.shard = shard;
        w.deadline_ms = now_ms() + options.progress_timeout_ms;
        ++result.shards_dispatched;
        count(obs.dispatched);
    }

    void dispatch() {
        for (WorkerProc& w : workers) {
            if (!w.alive || w.shard.has_value()) continue;
            if (pending.empty()) break;
            try {
                assign_next(w);
            } catch (const WireError&) {
                on_worker_death(w, "write failed");
            }
        }
    }

    // --- frame handling ----------------------------------------------------

    /// Commits the Batch that completes `w`'s assignment. It must be
    /// exactly that assignment — same first index and count — or the stream
    /// is quarantined.
    void commit_batch(WorkerProc& w, const BatchPayload& batch) {
        if (!w.shard.has_value() || w.shard->first != batch.first ||
            w.shard->count() != batch.lines.size())
            throw CoordinatorError(
                "batch [" + std::to_string(batch.first) + ", " +
                std::to_string(batch.first + batch.lines.size()) +
                ") does not match the worker's assignment");
        // Decode the whole batch before committing anything: a malformed
        // line must not leave a half-merged batch behind.
        std::vector<fleet::ScenarioOutcome> outcomes;
        outcomes.reserve(batch.lines.size());
        for (const std::string& line : batch.lines)
            outcomes.push_back(fleet::decode_outcome_line(line));
        commit(batch.first, std::move(outcomes));
        if (checkpoint.has_value()) {
            checkpoint->append(batch.first, batch.lines);
            ++result.checkpoint_records;
            count(obs.checkpoints);
        }
        w.shard.reset();
        // During the drain the worker still owes its exit, by the deadline
        // of the assignment it just settled.
        if (!draining) w.deadline_ms = -1;
        ++commits;
        count(obs.committed, static_cast<double>(batch.lines.size()));
        if (options.stop_after_commits > 0 &&
            commits >= options.stop_after_commits)
            stopping = true;
    }

    void handle_frame(WorkerProc& w, const Frame& frame) {
        switch (frame.type) {
            case MsgType::Batch:
                commit_batch(w, parse_batch(frame.payload));
                return;
            case MsgType::WorkerError:
                throw CoordinatorError("worker reported: " + frame.payload);
            default:
                throw CoordinatorError(std::string("unexpected ") +
                                       msg_type_name(frame.type) +
                                       " frame from worker");
        }
    }

    // --- failure handling --------------------------------------------------

    void on_worker_death(WorkerProc& w, const char* why,
                         bool trust_stream = true) {
        if (!w.alive) return;
        // Whatever complete frames are already buffered commit normally; a
        // truncated trailing frame is the expected shape of a crash and is
        // simply dropped with the reader. A quarantined (corrupt) stream is
        // not drained at all: nothing after the violation is trustworthy.
        if (trust_stream) (void)drain_reader(w);
        w.alive = false;
        w.close_fds();
        if (w.pid > 0) {
            ::waitpid(w.pid, nullptr, 0);
            w.pid = -1;
        }
        const bool held_batch = w.shard.has_value();
        // EOF during the drain with nothing assigned is the orderly exit,
        // not a death.
        if (draining && !held_batch) return;
        if (held_batch) {
            pending.push_front(*w.shard);
            ++result.shards_reassigned;
            count(obs.reassigned);
            w.shard.reset();
        }
        log_warning("svc: worker died (", why,
                    held_batch ? "); in-flight batch requeued" : ")");
        if (!stopping && !draining && restart_budget_left()) {
            ++result.worker_restarts;
            count(obs.restarts);
            ++w.generation;
            spawn_worker(w);
        }
    }

    /// The stream from this worker is poisoned (corrupt frame, protocol
    /// violation, undecodable outcome): everything already committed stands,
    /// nothing further can be trusted. Kill the process and take the normal
    /// death path (requeue + restart policy).
    void quarantine(WorkerProc& w, const char* why) {
        ++result.protocol_errors;
        count(obs.protocol_errors);
        if (w.pid > 0) ::kill(w.pid, SIGKILL);
        on_worker_death(w, why, /*trust_stream=*/false);
    }

    /// Extracts and handles every complete frame currently buffered.
    /// Returns false when the stream turned out corrupt or protocol-
    /// violating — the caller must quarantine the worker, or the reader
    /// would sit on unparseable bytes forever while the worker counts as
    /// alive.
    [[nodiscard]] bool drain_reader(WorkerProc& w) {
        while (true) {
            std::optional<Frame> frame;
            try {
                frame = w.reader.next();
                if (!frame.has_value()) return true;
                handle_frame(w, *frame);
            } catch (const WireError& e) {
                log_warning("svc: dropping worker stream: ", e.what());
                return false;
            } catch (const CoordinatorError& e) {
                log_warning("svc: protocol violation from worker: ", e.what());
                return false;
            } catch (const fleet::CodecError& e) {
                log_warning("svc: undecodable batch from worker: ", e.what());
                return false;
            }
        }
    }

    void read_worker(WorkerProc& w) {
        char buf[64 * 1024];
        const ssize_t r = ::read(w.from_fd, buf, sizeof buf);
        if (r < 0) {
            if (errno == EINTR || errno == EAGAIN) return;
            on_worker_death(w, "read failed");
            return;
        }
        if (r == 0) {
            on_worker_death(w, "pipe closed");
            return;
        }
        w.reader.feed(buf, static_cast<std::size_t>(r));
        if (!drain_reader(w)) quarantine(w, "corrupt or violating stream");
    }

    // --- supervision -------------------------------------------------------

    /// Reaps every worker past its deadline: SIGKILL, then the ordinary
    /// death path (requeue, restart budget).
    void check_deadlines(std::int64_t now) {
        for (WorkerProc& w : workers) {
            if (!w.alive || w.deadline_ms < 0 || now < w.deadline_ms) continue;
            ++result.deadline_kills;
            count(obs.deadline_kills);
            if (w.pid > 0) ::kill(w.pid, SIGKILL);
            on_worker_death(w, "deadline exceeded");
        }
    }

    /// Starts the drain by closing every worker's input pipe: a worker
    /// sends the batch it holds, then reads EOF and exits. An idle worker
    /// now owes its exit within the deadline; a worker holding a batch
    /// keeps the deadline of its assignment.
    void begin_drain() {
        draining = true;
        const std::int64_t due = now_ms() + options.progress_timeout_ms;
        for (WorkerProc& w : workers) {
            if (!w.alive) continue;
            if (!w.shard.has_value()) w.deadline_ms = due;
            w.close_input();
        }
    }

    // --- main loop ---------------------------------------------------------

    void serve_http() {
        if (options.http == nullptr || !options.http->listening()) return;
        options.http->serve_ready([this](const std::string& path,
                                         std::string& body) {
            if (path == "/metrics") {
                body = options.recorder != nullptr
                           ? options.recorder->metrics().render_prometheus()
                           : "";
                return true;
            }
            if (path == "/healthz") {
                body = "ok " + std::to_string(report.committed()) + "/" +
                       std::to_string(grid) + "\n";
                return true;
            }
            return false;
        });
    }

    /// True once the run must stop dispatching: the grid is committed, a
    /// stop was requested, or the fleet policy gives up (which sets the
    /// verdict).
    [[nodiscard]] bool run_over() {
        if (options.stop != nullptr &&
            options.stop->load(std::memory_order_relaxed))
            stopping = true;
        if (report.complete() || stopping) return true;
        // A dead worker is reforked at once while the budget lasts, so a
        // fleet below strength has spent it. Policy decides the ending.
        const int alive = alive_workers();
        if (alive == 0) {
            if (options.partial_ok)
                partial_finish = true;
            else
                result.error = "all workers dead and restarts exhausted";
            return true;
        }
        if (alive < options.min_workers && !options.partial_ok) {
            result.error = "alive workers (" + std::to_string(alive) +
                           ") below min_workers (" +
                           std::to_string(options.min_workers) +
                           ") with the restart budget exhausted";
            return true;
        }
        return false;
    }

    /// One poll loop serves the run and then the drain; it returns once
    /// every worker has exited or been reaped.
    void event_loop() {
        while (true) {
            check_deadlines(now_ms());
            if (!draining) {
                if (run_over())
                    begin_drain();
                else
                    dispatch();
            }
            if (draining && alive_workers() == 0) return;
            update_gauges();

            std::vector<pollfd> fds;
            std::vector<WorkerProc*> owners;
            for (WorkerProc& w : workers)
                if (w.alive) {
                    fds.push_back({w.from_fd, POLLIN, 0});
                    owners.push_back(&w);
                }
            if (options.http != nullptr && options.http->listening())
                fds.push_back({options.http->fd(), POLLIN, 0});

            // Deadlines are only checked when poll returns, so the timeout
            // must undercut the deadline.
            const int timeout_ms =
                std::clamp(options.progress_timeout_ms / 4, 5, 100);
            const int rc =
                ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
            if (rc < 0) {
                if (errno == EINTR) continue;  // signal: loop re-checks stop
                throw CoordinatorError(std::string("poll: ") +
                                       std::strerror(errno));
            }
            for (std::size_t i = 0; i < owners.size(); ++i)
                if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                    read_worker(*owners[i]);
            if (options.http != nullptr && fds.size() > owners.size() &&
                (fds.back().revents & POLLIN) != 0)
                serve_http();
        }
    }

    CoordinatorResult run() {
        REFPGA_EXPECTS(!ran);
        ran = true;
        // A worker can die between our deadline check and a write; the
        // resulting EPIPE must surface as WireError, not kill the process.
        ::signal(SIGPIPE, SIG_IGN);

        // The grid and the fits are built here, once, so that every forked
        // worker inherits them instead of rebuilding them per process. The
        // grid comes first: resumed outcomes take their scenarios from it.
        scenarios = spec.expand();
        open_journal();
        seed_pending();
        for (const app::SystemVariant variant : spec.variants)
            (void)fleet::variant_fit(variant);
        workers.resize(static_cast<std::size_t>(options.workers));
        for (std::size_t i = 0; i < workers.size(); ++i) {
            workers[i].slot = static_cast<int>(i);
            spawn_worker(workers[i]);
        }
        update_gauges();

        event_loop();
        update_gauges();
        if (checkpoint.has_value() && options.checkpoint_fsync_every_n > 0)
            checkpoint->sync();

        result.completed = report.complete();
        result.scenarios_committed = report.committed();
        result.failures = report.failure_count();
        result.max_retained_rows = report.committed();
        if (result.completed) {
            // Survivors finished the grid during the drain; a fail-fast
            // verdict reached mid-loop is obsolete.
            result.error.clear();
        } else if (partial_finish && result.error.empty()) {
            result.partial = true;
            report.mark_partial();
        }
        if (!result.completed && !result.partial && result.error.empty())
            result.error = stopping ? "stopped before completion"
                                    : "incomplete sweep";
        return result;
    }
};

Coordinator::Coordinator(JobSpec spec, CoordinatorOptions options)
    : impl_(std::make_unique<Impl>(std::move(spec), std::move(options))) {}

Coordinator::~Coordinator() = default;

CoordinatorResult Coordinator::run() { return impl_->run(); }

const fleet::CampaignReport& Coordinator::report() const { return impl_->report; }

fleet::CampaignReport& Coordinator::report() { return impl_->report; }

}  // namespace refpga::svc
