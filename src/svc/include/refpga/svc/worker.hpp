// Campaign worker: the child-process half of the sharded campaign service.
//
// A worker is forked by the coordinator and inherits the expanded scenario
// grid and its campaign options with the fork. It speaks the svc wire
// protocol over two pipe fds and blocks on one instruction at a time: an
// Assign names one batch of scenario indices, which the worker runs and
// answers with exactly one Batch frame. The coordinator ends a worker by
// closing its input pipe. A worker therefore holds at most one batch, and a
// pipe closed while it computes is read when that batch is sent.
//
// Workers are execution only: no checkpointing, no aggregation, no
// observability registry. All of that lives in the coordinator, which is
// the single writer of every output artifact.
#pragma once

#include <string_view>
#include <vector>

#include "refpga/fleet/campaign.hpp"
#include "refpga/svc/wire.hpp"

namespace refpga::svc {

/// Test seam: the points at which a worker can be made to fail. The library
/// never installs one; tests and benches pass an implementation through
/// CoordinatorOptions::worker_faults. A hook may sleep, block or end the
/// process. The defaults do nothing and write frames unchanged.
class WorkerFaults {
public:
    virtual ~WorkerFaults() = default;
    /// Called once in the forked child, before the protocol loop.
    virtual void start(int /*slot*/, int /*generation*/) {}
    virtual void before_batch() {}
    /// The batch is computed and not yet sent.
    virtual void after_batch() {}
    /// Writes one worker → coordinator frame (WorkerError excepted).
    virtual void write(int fd, MsgType type, std::string_view payload) {
        write_frame(fd, type, payload);
    }
};

/// Runs the worker protocol loop over `scenarios`, the job's expanded grid,
/// until EOF on `in_fd`. `options` sets the campaign threads and the
/// front-end block size of every batch. Returns the process exit code (0
/// at EOF, 1 after a fatal error, which is also reported upstream via a
/// WorkerError frame). Never throws — a worker that cannot even report its
/// error just exits. `faults` (tests only) is consulted at every fault
/// point when set.
[[nodiscard]] int worker_main(int in_fd, int out_fd,
                              const std::vector<fleet::Scenario>& scenarios,
                              const fleet::CampaignOptions& options,
                              WorkerFaults* faults = nullptr);

}  // namespace refpga::svc
