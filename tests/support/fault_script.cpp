#include "refpga/svc/fault_script.hpp"

#include <cerrno>
#include <csignal>
#include <string>

#include <poll.h>
#include <unistd.h>

namespace refpga::svc {

namespace {

void write_raw(int fd, const std::string& bytes, std::size_t n) {
    for (std::size_t done = 0; done < n;) {
        const ssize_t w = ::write(fd, bytes.data() + done, n - done);
        if (w < 0 && errno == EINTR) continue;
        if (w < 0) throw WireError("fault frame write failed");
        done += static_cast<std::size_t>(w);
    }
}

}  // namespace

void FaultScript::start(int worker_slot, int generation) {
    armed_ = (slot < 0 || slot == worker_slot) &&
             (generation == 0 || every_generation);
}

bool FaultScript::due(Hook h) { return armed_ && h == hook && ++seen_ >= at; }

void FaultScript::act() const {
    switch (action) {
        case Action::Hang:
            for (;;) ::pause();
        case Action::Sleep:
            ::poll(nullptr, 0, sleep_ms);
            return;
        case Action::Exit:
            _exit(9);
        case Action::Kill:
            ::kill(::getpid(), SIGKILL);
            for (;;) ::pause();
        default:
            return;  // frame actions act in write()
    }
}

void FaultScript::write(int fd, MsgType type, std::string_view payload) {
    if (!due(Hook::FrameWrite)) {
        write_frame(fd, type, payload);
        return;
    }
    std::string body(payload);
    if (action == Action::RewriteFirst || action == Action::RewriteCount) {
        BatchPayload batch = parse_batch(payload);
        if (action == Action::RewriteFirst) ++batch.first;
        if (action == Action::RewriteCount) batch.lines.push_back(batch.lines.back());
        body = encode_batch(batch.first, batch.lines);
    }
    const auto length = static_cast<std::uint32_t>(body.size());
    std::string frame;
    for (int shift = 0; shift < 32; shift += 8)
        frame.push_back(static_cast<char>((length >> shift) & 0xff));
    frame.push_back(static_cast<char>(type));
    frame += body;
    switch (action) {
        case Action::Drop:
            return;
        case Action::Tear:
            write_raw(fd, frame, frame.size() / 2);
            _exit(9);
        case Action::CorruptLength:
            frame[3] = static_cast<char>(frame[3] ^ 0x80);
            break;
        case Action::CorruptPayload:
            frame[5] = static_cast<char>(frame[5] ^ 0x80);
            break;
        default:
            break;
    }
    write_raw(fd, frame, frame.size());
    act();
}

}  // namespace refpga::svc
