#include "refpga/svc/wire.hpp"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "refpga/common/json.hpp"

namespace refpga::svc {

const char* msg_type_name(MsgType type) {
    switch (type) {
        case MsgType::Assign: return "Assign";
        case MsgType::Batch: return "Batch";
        case MsgType::WorkerError: return "WorkerError";
    }
    return "?";
}

namespace {

void write_all(int fd, const char* data, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR) continue;
            throw WireError(std::string("frame write failed: ") +
                            std::strerror(errno));
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
}

/// Reads exactly n bytes. Returns bytes read (n on success, less on EOF).
std::size_t read_upto(int fd, char* data, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, data + got, n - got);
        if (r < 0) {
            if (errno == EINTR) continue;
            throw WireError(std::string("frame read failed: ") +
                            std::strerror(errno));
        }
        if (r == 0) break;
        got += static_cast<std::size_t>(r);
    }
    return got;
}

[[nodiscard]] std::uint32_t decode_length(const char* header) {
    const auto* b = reinterpret_cast<const unsigned char*>(header);
    return static_cast<std::uint32_t>(b[0]) |
           static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 |
           static_cast<std::uint32_t>(b[3]) << 24;
}

void check_header(std::uint32_t length, std::uint8_t type) {
    if (length > kMaxFramePayload)
        throw WireError("frame payload of " + std::to_string(length) +
                        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                        " byte limit (corrupt length prefix?)");
    if (type < static_cast<std::uint8_t>(MsgType::Assign) ||
        type > static_cast<std::uint8_t>(MsgType::WorkerError))
        throw WireError("unknown frame type " + std::to_string(type));
}

}  // namespace

void write_frame(int fd, MsgType type, std::string_view payload) {
    if (payload.size() > kMaxFramePayload)
        throw WireError("refusing to write oversized frame of " +
                        std::to_string(payload.size()) + " bytes");
    const auto length = static_cast<std::uint32_t>(payload.size());
    char header[5];
    header[0] = static_cast<char>(length & 0xff);
    header[1] = static_cast<char>((length >> 8) & 0xff);
    header[2] = static_cast<char>((length >> 16) & 0xff);
    header[3] = static_cast<char>((length >> 24) & 0xff);
    header[4] = static_cast<char>(type);
    // Header and payload go out in one buffer: a frame is either fully
    // written or the writer has already thrown, so readers never see an
    // interleaved or headerless payload from a healthy peer.
    std::string buffer;
    buffer.reserve(sizeof header + payload.size());
    buffer.append(header, sizeof header);
    buffer.append(payload);
    write_all(fd, buffer.data(), buffer.size());
}

bool read_frame(int fd, Frame& out) {
    char header[5];
    const std::size_t got = read_upto(fd, header, sizeof header);
    if (got == 0) return false;  // clean EOF at a frame boundary
    if (got < sizeof header) throw WireError("EOF inside frame header");
    const std::uint32_t length = decode_length(header);
    const auto type = static_cast<std::uint8_t>(header[4]);
    check_header(length, type);
    out.type = static_cast<MsgType>(type);
    out.payload.resize(length);
    if (read_upto(fd, out.payload.data(), length) < length)
        throw WireError("EOF inside " +
                        std::string(msg_type_name(out.type)) + " payload");
    return true;
}

std::optional<Frame> FrameReader::next() {
    if (buffer_.size() < 5) return std::nullopt;
    const std::uint32_t length = decode_length(buffer_.data());
    const auto type = static_cast<std::uint8_t>(buffer_[4]);
    check_header(length, type);
    if (buffer_.size() < 5 + static_cast<std::size_t>(length))
        return std::nullopt;
    Frame frame;
    frame.type = static_cast<MsgType>(type);
    frame.payload = buffer_.substr(5, length);
    buffer_.erase(0, 5 + static_cast<std::size_t>(length));
    return frame;
}

std::vector<std::uint64_t> parse_fields(std::string_view payload, std::size_t n) {
    std::vector<std::uint64_t> fields;
    std::size_t pos = 0;
    while (pos < payload.size()) {
        const std::size_t end = payload.find(' ', pos);
        const std::string_view token =
            payload.substr(pos, end == std::string_view::npos ? end : end - pos);
        if (token.empty()) throw WireError("empty field in payload");
        std::uint64_t value = 0;
        const std::errc ec = parse_decimal(token, value);
        if (ec == std::errc::result_out_of_range)
            throw WireError("payload field '" + std::string(token) +
                            "' overflows 64 bits");
        if (ec != std::errc{})
            throw WireError("non-numeric payload field '" + std::string(token) + "'");
        fields.push_back(value);
        if (end == std::string_view::npos) break;
        pos = end + 1;
    }
    if (fields.size() != n)
        throw WireError("expected " + std::to_string(n) + " payload fields, got " +
                        std::to_string(fields.size()));
    return fields;
}

std::string encode_batch(std::uint64_t first,
                         const std::vector<std::string>& lines) {
    std::string out = std::to_string(first) + ' ' + std::to_string(lines.size()) + '\n';
    for (const std::string& line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

BatchPayload parse_batch(std::string_view payload) {
    const std::size_t eol = payload.find('\n');
    if (eol == std::string_view::npos)
        throw WireError("batch payload missing header line");
    const std::vector<std::uint64_t> head = parse_fields(payload.substr(0, eol), 2);
    BatchPayload batch;
    batch.first = head[0];
    const std::uint64_t count = head[1];
    std::size_t pos = eol + 1;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::size_t end = payload.find('\n', pos);
        if (end == std::string_view::npos)
            throw WireError("batch payload truncated at line " + std::to_string(i));
        batch.lines.emplace_back(payload.substr(pos, end - pos));
        pos = end + 1;
    }
    if (pos != payload.size())
        throw WireError("trailing bytes after batch payload");
    return batch;
}

}  // namespace refpga::svc
