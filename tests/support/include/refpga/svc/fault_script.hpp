// Deterministic worker faults for the campaign-service tests and the
// bench_svc_scale --chaos matrix, run through svc::WorkerFaults.
//
// A script names one hook and one action. It fires at the `at`-th time the
// hook is reached in a worker process and at every later time, in one slot
// or all, in each slot's first process generation or in every one. There is
// no randomness: the same script injects the same faults on every run.
#pragma once

#include <cstdint>
#include <string_view>

#include "refpga/svc/worker.hpp"

namespace refpga::svc {

class FaultScript final : public WorkerFaults {
public:
    enum class Hook { BeforeBatch, AfterBatch, FrameWrite };
    enum class Action {
        Hang,            ///< block until killed
        Sleep,           ///< sleep sleep_ms, then go on
        Exit,            ///< _exit(9)
        Kill,            ///< SIGKILL itself
        Drop,            ///< frame: write nothing
        Tear,            ///< frame: write its first half, then _exit(9)
        CorruptLength,   ///< frame: length prefix far above the frame cap
        CorruptPayload,  ///< frame: first payload byte made non-ASCII
        RewriteFirst,    ///< Batch frame: first index + 1
        RewriteCount,    ///< Batch frame: one extra (repeated) outcome line
    };

    FaultScript(Hook h, Action a) : hook(h), action(a) {}

    Hook hook;
    Action action;
    int slot = -1;                  ///< the one slot that injects; -1 = all
    bool every_generation = false;  ///< false: each slot's first one only
    std::uint64_t at = 1;           ///< first opportunity that fires (1-based)
    int sleep_ms = 0;               ///< Sleep's duration

    void start(int worker_slot, int generation) override;
    void before_batch() override { if (due(Hook::BeforeBatch)) act(); }
    void after_batch() override { if (due(Hook::AfterBatch)) act(); }
    /// Frame actions change the frame; the others run after it is written.
    void write(int fd, MsgType type, std::string_view payload) override;

private:
    [[nodiscard]] bool due(Hook h);
    void act() const;

    bool armed_ = false;  ///< set by start() in the forked child
    std::uint64_t seen_ = 0;
};

}  // namespace refpga::svc
