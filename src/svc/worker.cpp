#include "refpga/svc/worker.hpp"

#include <csignal>
#include <optional>
#include <stdexcept>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "refpga/fleet/campaign.hpp"
#include "refpga/fleet/outcome_codec.hpp"
#include "refpga/svc/chaos.hpp"
#include "refpga/svc/job.hpp"
#include "refpga/svc/wire.hpp"

namespace refpga::svc {

std::string encode_init(int worker_threads, const std::string& job_json) {
    return std::to_string(worker_threads) + '\n' + job_json;
}

namespace {

class Worker {
public:
    Worker(int in_fd, int out_fd) : in_fd_(in_fd), out_fd_(out_fd) {}

    int run() {
        try {
            loop();
            return 0;
        } catch (const std::exception& e) {
            try {
                // Error reporting bypasses the chaos wrapper: a worker dying
                // of injected chaos already exercised the failure path; its
                // last words should stay trustworthy.
                write_frame(out_fd_, MsgType::WorkerError, e.what());
            } catch (...) {
                // Pipe to the coordinator is gone; exit code says it all.
            }
            return 1;
        }
    }

private:
    /// All protocol writes go through here so the chaos plan (when armed)
    /// can tear, corrupt, delay or drop them. A torn write simulates death
    /// mid-write: the process exits immediately, leaving the partial frame.
    void send(MsgType type, const std::string& payload) {
        if (!chaos_.has_value() || !chaos_->armed()) {
            write_frame(out_fd_, type, payload);
            return;
        }
        const WireAction action =
            chaos_->next_wire_action(5 + payload.size(), payload.size());
        if (!apply_wire_action(action, out_fd_,
                               static_cast<std::uint8_t>(type), payload))
            _exit(9);
    }

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
        const std::size_t eol = payload.find('\n');
        if (eol == std::string::npos)
            throw WireError("Init payload missing thread-count line");
        parse_init_line(payload.substr(0, eol));
        if (chaos_.has_value() && chaos_->crash_now(CrashPhase::PreInit))
            _exit(9);
        spec_ = JobSpec::from_json(payload.substr(eol + 1));
        scenarios_ = spec_.expand();
        options_.stream_block_ticks = spec_.stream_block_ticks;
    }

    /// First Init line: "<threads>" or "<threads> chaos <seed> <fields...>".
    void parse_init_line(const std::string& line) {
        const std::size_t space = line.find(' ');
        const std::string threads_tok = line.substr(0, space);
        const auto threads = parse_fields(threads_tok, 1);
        options_.threads = static_cast<int>(threads[0]);
        if (space == std::string::npos) return;
        std::string rest = line.substr(space + 1);
        constexpr std::string_view kw = "chaos ";
        if (rest.compare(0, kw.size(), kw) != 0)
            throw WireError("malformed Init option line '" + rest + "'");
        try {
            const auto [spec, seed] = parse_chaos(rest.substr(kw.size()));
            chaos_.emplace(spec, seed);
        } catch (const std::exception& e) {
            throw WireError(std::string("bad Init chaos config: ") + e.what());
        }
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
        if (chaos_.has_value()) {
            if (chaos_->next_hang()) {
                // Wedge exactly like a stuck process: stop draining stdin,
                // stop producing. Only a signal ends this.
                for (;;) ::pause();
            }
            if (chaos_->next_slow())
                ::poll(nullptr, 0, chaos_->spec().slow_ms);
        }
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
        if (chaos_.has_value() && chaos_->crash_now(CrashPhase::MidBatch))
            _exit(9);  // the computed batch dies with us

        std::vector<std::string> lines;
        lines.reserve(result.outcomes.size());
        for (const fleet::ScenarioOutcome& o : result.outcomes)
            lines.push_back(fleet::encode_outcome_line(o));
        send(MsgType::Batch, encode_batch(shard, first, lines));
    }

    int in_fd_;
    int out_fd_;
    JobSpec spec_;
    std::vector<fleet::Scenario> scenarios_;
    fleet::CampaignOptions options_;
    std::optional<ChaosPlan> chaos_;
};

}  // namespace

int worker_main(int in_fd, int out_fd) {
    // A coordinator that died (or quarantined this worker) closes our pipe;
    // the resulting EPIPE must surface as a WireError return path, not
    // SIGPIPE process death with no WorkerError frame.
    ::signal(SIGPIPE, SIG_IGN);
    return Worker(in_fd, out_fd).run();
}

}  // namespace refpga::svc
