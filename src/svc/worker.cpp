#include "refpga/svc/worker.hpp"

#include <csignal>
#include <stdexcept>
#include <vector>

#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/outcome_codec.hpp"
#include "refpga/svc/job.hpp"
#include "refpga/svc/wire.hpp"

namespace refpga::svc {

std::string encode_init(int worker_threads, const std::string& job_json) {
    return std::to_string(worker_threads) + '\n' + job_json;
}

namespace {

class Worker {
public:
    Worker(int in_fd, int out_fd, WorkerFaults& faults)
        : in_fd_(in_fd), out_fd_(out_fd), faults_(faults) {}

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
        while (read_frame(in_fd_, frame)) {  // false: coordinator went away
            switch (frame.type) {
                case MsgType::Init:
                    init(frame.payload);
                    break;
                case MsgType::Assign:
                    run_batch(frame.payload);
                    break;
                case MsgType::Shutdown:
                    return;
                default:
                    throw WireError(std::string("unexpected ") +
                                    msg_type_name(frame.type) +
                                    " frame in worker");
            }
        }
    }

    void init(const std::string& payload) {
        faults_.before_init();
        const std::size_t eol = payload.find('\n');
        if (eol == std::string::npos)
            throw WireError("Init payload missing thread-count line");
        options_.threads =
            static_cast<int>(parse_fields(payload.substr(0, eol), 1)[0]);
        spec_ = JobSpec::from_json(payload.substr(eol + 1));
        scenarios_ = spec_.expand();
        options_.stream_block_ticks = spec_.stream_block_ticks;
    }

    /// Runs the Assign "shard first count" and answers with its one Batch.
    void run_batch(const std::string& payload) {
        const auto f = parse_fields(payload, 3);
        const std::uint64_t shard = f[0];
        const std::uint64_t first = f[1];
        const std::uint64_t count = f[2];
        if (scenarios_.empty()) throw WireError("Assign before Init");
        if (count == 0 || first > scenarios_.size() ||
            count > scenarios_.size() - first)
            throw WireError("Assign range out of bounds");
        faults_.before_batch();
        const std::vector<fleet::Scenario> slice(
            scenarios_.begin() + static_cast<std::ptrdiff_t>(first),
            scenarios_.begin() + static_cast<std::ptrdiff_t>(first + count));
        const fleet::CampaignRunner runner(options_);
        const fleet::CampaignResult result = runner.run(slice);
        // The coordinator accepts only a batch of exactly the assigned
        // count; anything else must fail loudly here, not as a baffling
        // protocol error there.
        if (result.outcomes.size() != slice.size())
            throw std::runtime_error(
                "CampaignRunner returned " +
                std::to_string(result.outcomes.size()) + " outcomes for " +
                std::to_string(slice.size()) + " scenarios in shard " +
                std::to_string(shard));
        faults_.after_batch();

        std::vector<std::string> lines;
        lines.reserve(result.outcomes.size());
        for (const fleet::ScenarioOutcome& o : result.outcomes)
            lines.push_back(fleet::encode_outcome_line(o));
        faults_.write(out_fd_, MsgType::Batch, encode_batch(shard, first, lines));
    }

    int in_fd_;
    int out_fd_;
    WorkerFaults& faults_;
    JobSpec spec_;
    std::vector<fleet::Scenario> scenarios_;
    fleet::CampaignOptions options_;
};

}  // namespace

int worker_main(int in_fd, int out_fd, WorkerFaults* faults) {
    // A coordinator that died (or quarantined this worker) closes our pipe;
    // the resulting EPIPE must surface as a WireError return path, not
    // SIGPIPE process death with no WorkerError frame.
    ::signal(SIGPIPE, SIG_IGN);
    WorkerFaults none;
    return Worker(in_fd, out_fd, faults != nullptr ? *faults : none).run();
}

}  // namespace refpga::svc
