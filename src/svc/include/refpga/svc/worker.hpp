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

namespace refpga::svc {

/// Init frame payload: "<worker_threads>\n" followed by the job JSON.
[[nodiscard]] std::string encode_init(int worker_threads,
                                      const std::string& job_json);

/// Runs the worker protocol loop until Shutdown or EOF on `in_fd`.
/// Returns the process exit code (0 on orderly shutdown, 1 after a fatal
/// error, which is also reported upstream via a WorkerError frame).
/// Never throws — a worker that cannot even report its error just exits.
[[nodiscard]] int worker_main(int in_fd, int out_fd);

}  // namespace refpga::svc
