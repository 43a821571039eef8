#include "refpga/svc/worker.hpp"

#include <csignal>
#include <stdexcept>

#include "refpga/fleet/outcome_codec.hpp"

namespace refpga::svc {

namespace {

class Worker {
public:
    Worker(int in_fd, int out_fd, const std::vector<fleet::Scenario>& scenarios,
           const fleet::CampaignOptions& options, WorkerFaults& faults)
        : in_fd_(in_fd),
          out_fd_(out_fd),
          scenarios_(scenarios),
          options_(options),
          faults_(faults) {}

    int run() {
        try {
            loop();
            return 0;
        } catch (const std::exception& e) {
            try {
                // Error reporting bypasses the fault seam: a worker's last
                // words should stay trustworthy.
                write_frame(out_fd_, MsgType::WorkerError, e.what());
            } catch (...) {
                // Pipe to the coordinator is gone; exit code says it all.
            }
            return 1;
        }
    }

private:
    /// One instruction at a time: every frame is read while idle, so the
    /// worker never holds more than the one batch it is running.
    void loop() {
        Frame frame;
        while (read_frame(in_fd_, frame)) {  // false: the pipe was closed
            if (frame.type != MsgType::Assign)
                throw WireError(std::string("unexpected ") +
                                msg_type_name(frame.type) + " frame in worker");
            run_batch(frame.payload);
        }
    }

    /// Runs the Assign "first count" and answers with its one Batch.
    void run_batch(const std::string& payload) {
        const auto f = parse_fields(payload, 2);
        const std::uint64_t first = f[0];
        const std::uint64_t count = f[1];
        if (count == 0 || first > scenarios_.size() ||
            count > scenarios_.size() - first)
            throw WireError("Assign range out of bounds");
        faults_.before_batch();
        const std::vector<fleet::Scenario> slice(
            scenarios_.begin() + static_cast<std::ptrdiff_t>(first),
            scenarios_.begin() + static_cast<std::ptrdiff_t>(first + count));
        const fleet::CampaignResult result = fleet::CampaignRunner(options_).run(slice);
        // The coordinator accepts only a batch of exactly the assigned
        // count; anything else must fail loudly here, not as a baffling
        // protocol error there.
        if (result.outcomes.size() != slice.size())
            throw std::runtime_error(
                "CampaignRunner returned " +
                std::to_string(result.outcomes.size()) + " outcomes for " +
                std::to_string(slice.size()) + " scenarios of batch " +
                std::to_string(first));
        faults_.after_batch();

        std::vector<std::string> lines;
        lines.reserve(result.outcomes.size());
        for (const fleet::ScenarioOutcome& o : result.outcomes)
            lines.push_back(fleet::encode_outcome_line(o));
        faults_.write(out_fd_, MsgType::Batch, encode_batch(first, lines));
    }

    int in_fd_;
    int out_fd_;
    const std::vector<fleet::Scenario>& scenarios_;
    const fleet::CampaignOptions& options_;
    WorkerFaults& faults_;
};

}  // namespace

int worker_main(int in_fd, int out_fd, const std::vector<fleet::Scenario>& scenarios,
                const fleet::CampaignOptions& options, WorkerFaults* faults) {
    // A coordinator that died (or quarantined this worker) closes our pipe;
    // the resulting EPIPE must surface as a WireError return path, not
    // SIGPIPE process death with no WorkerError frame.
    ::signal(SIGPIPE, SIG_IGN);
    WorkerFaults none;
    return Worker(in_fd, out_fd, scenarios, options,
                  faults != nullptr ? *faults : none)
        .run();
}

}  // namespace refpga::svc
