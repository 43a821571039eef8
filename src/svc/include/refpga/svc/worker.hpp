// Campaign worker: the child-process half of the sharded campaign service.
//
// A worker speaks the svc wire protocol over two pipe fds. It receives the
// job spec once (Init), expands the identical scenario grid the coordinator
// holds, and then blocks on one instruction at a time: an Assign names one
// batch of scenario indices, which the worker runs and answers with exactly
// one Batch frame; Shutdown ends the loop. A worker therefore holds at most
// one batch, and a Shutdown sent while it computes is read when that batch
// is done.
//
// Workers are execution only: no checkpointing, no aggregation, no
// observability registry. All of that lives in the coordinator, which is
// the single writer of every output artifact.
#pragma once

#include <string>
#include <string_view>

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
    virtual void before_init() {}
    virtual void before_batch() {}
    /// The batch is computed and not yet sent.
    virtual void after_batch() {}
    /// Writes one worker → coordinator frame (WorkerError excepted).
    virtual void write(int fd, MsgType type, std::string_view payload) {
        write_frame(fd, type, payload);
    }
};

/// Init frame payload: "<worker_threads>\n" followed by the job JSON.
[[nodiscard]] std::string encode_init(int worker_threads,
                                      const std::string& job_json);

/// Runs the worker protocol loop until Shutdown or EOF on `in_fd`.
/// Returns the process exit code (0 on orderly shutdown, 1 after a fatal
/// error, which is also reported upstream via a WorkerError frame).
/// Never throws — a worker that cannot even report its error just exits.
/// `faults` (tests only) is consulted at every fault point when set.
[[nodiscard]] int worker_main(int in_fd, int out_fd,
                              WorkerFaults* faults = nullptr);

}  // namespace refpga::svc
