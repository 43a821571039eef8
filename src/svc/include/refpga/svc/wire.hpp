// Length-prefixed frame protocol between the campaign coordinator and its
// worker processes.
//
// Transport is a pair of pipes per worker. Each frame is:
//
//   u32 little-endian payload length | u8 message type | payload bytes
//
// Payloads are line-oriented text: an Assign carries "first count" as
// space-separated decimal fields, and a Batch frame carries a "first count"
// header line followed by `count` outcome_codec lines. Text keeps the
// protocol debuggable (`xxd` on a captured stream reads almost like a log)
// at negligible cost next to running scenarios. A forked worker inherits
// its scenario grid and options, so no frame carries the job, and the
// coordinator ends a worker by closing its input pipe.
//
// Delivery rules the coordinator relies on:
//   - write_frame writes the whole frame or throws (partial writes and
//     EINTR are retried), so a frame observed by the reader is complete;
//   - a worker killed mid-write leaves a truncated frame that FrameReader
//     simply never yields — complete frames before it stay valid, which is
//     what makes committed batches from a dead worker trustworthy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace refpga::svc {

class WireError : public std::runtime_error {
public:
    explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class MsgType : std::uint8_t {
    Assign = 1,   ///< coordinator→worker: "first count", one batch
    Batch,        ///< worker→coordinator: "first count\n" + outcome lines
    WorkerError,  ///< worker→coordinator: fatal error text
};

[[nodiscard]] const char* msg_type_name(MsgType type);

struct Frame {
    MsgType type = MsgType::Assign;
    std::string payload;
};

/// Frames larger than this are a protocol violation (a batch of outcomes is
/// a few hundred KB at most; megabytes means a corrupt length prefix).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Blocking write of one complete frame; throws WireError on any failure
/// (including EPIPE — callers treat that as worker death).
void write_frame(int fd, MsgType type, std::string_view payload);

/// Blocking read of one frame. Returns false on clean EOF at a frame
/// boundary; throws WireError on EOF mid-frame or a corrupt prefix.
[[nodiscard]] bool read_frame(int fd, Frame& out);

/// Incremental decoder for the coordinator's poll loop: feed() whatever
/// bytes arrived, then drain next() until it returns nullopt. Bytes of an
/// incomplete trailing frame are retained across feeds.
class FrameReader {
public:
    void feed(const char* data, std::size_t n) { buffer_.append(data, n); }

    /// Next complete frame, if any. Throws WireError on a corrupt prefix.
    [[nodiscard]] std::optional<Frame> next();

private:
    std::string buffer_;
};

// --- payload helpers --------------------------------------------------------

/// Splits a control payload of exactly `n` space-separated u64 fields;
/// throws WireError otherwise.
[[nodiscard]] std::vector<std::uint64_t> parse_fields(std::string_view payload,
                                                      std::size_t n);

/// Batch payload: header "first count" then `count` outcome lines.
struct BatchPayload {
    std::uint64_t first = 0;
    std::vector<std::string> lines;
};

[[nodiscard]] std::string encode_batch(std::uint64_t first,
                                       const std::vector<std::string>& lines);
[[nodiscard]] BatchPayload parse_batch(std::string_view payload);

}  // namespace refpga::svc
