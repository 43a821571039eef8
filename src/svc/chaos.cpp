#include "refpga/svc/chaos.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <unistd.h>

#include "refpga/svc/wire.hpp"

namespace refpga::svc {

namespace {

/// SplitMix64 finalizer over (seed, salt): the per-category stream seeds,
/// same derivation as refpga::fault::FaultPlan so one plan seed yields
/// fully independent category schedules.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void write_all_or_throw(int fd, const char* data, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR) continue;
            throw WireError(std::string("chaos frame write failed: ") +
                            std::strerror(errno));
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
}

std::string frame_bytes(std::uint8_t type, std::string_view payload) {
    const auto length = static_cast<std::uint32_t>(payload.size());
    std::string buffer;
    buffer.reserve(5 + payload.size());
    buffer.push_back(static_cast<char>(length & 0xff));
    buffer.push_back(static_cast<char>((length >> 8) & 0xff));
    buffer.push_back(static_cast<char>((length >> 16) & 0xff));
    buffer.push_back(static_cast<char>((length >> 24) & 0xff));
    buffer.push_back(static_cast<char>(type));
    buffer.append(payload);
    return buffer;
}

std::string fmt_prob(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

constexpr std::size_t kMaxTraceLines = 512;

}  // namespace

const char* crash_phase_name(CrashPhase phase) {
    switch (phase) {
        case CrashPhase::None: return "none";
        case CrashPhase::PreInit: return "pre-init";
        case CrashPhase::MidBatch: return "mid-batch";
        case CrashPhase::PreCheckpoint: return "pre-checkpoint";
    }
    return "?";
}

CrashPhase parse_crash_phase(std::string_view name) {
    for (const CrashPhase p : {CrashPhase::None, CrashPhase::PreInit,
                               CrashPhase::MidBatch, CrashPhase::PreCheckpoint})
        if (name == crash_phase_name(p)) return p;
    throw std::runtime_error("unknown crash phase '" + std::string(name) + "'");
}

ChaosPlan::ChaosPlan(ChaosSpec spec, std::uint64_t seed)
    : spec_(spec),
      torn_rng_(mix(seed, 1)),
      clen_rng_(mix(seed, 2)),
      cpay_rng_(mix(seed, 3)),
      delay_rng_(mix(seed, 4)),
      drop_rng_(mix(seed, 5)),
      hang_rng_(mix(seed, 6)),
      slow_rng_(mix(seed, 7)) {}

void ChaosPlan::record(const char* what, std::uint64_t detail) {
    if (trace_.size() >= kMaxTraceLines) return;
    trace_.push_back(std::string(what) + ' ' + std::to_string(detail));
}

WireAction ChaosPlan::next_wire_action(std::size_t frame_size,
                                       std::size_t payload_size) {
    // Every category stream advances exactly once per frame whether or not
    // it fires, so enabling one category never shifts another's schedule.
    const bool torn = torn_rng_.next_double() < spec_.torn_frame_prob;
    const bool clen = clen_rng_.next_double() < spec_.corrupt_length_prob;
    const bool cpay = cpay_rng_.next_double() < spec_.corrupt_payload_prob;
    const bool delay = delay_rng_.next_double() < spec_.delay_frame_prob;
    const bool drop = drop_rng_.next_double() < spec_.drop_frame_prob;

    WireAction action;
    if (torn && frame_size >= 2) {
        action.kind = WireAction::Kind::Torn;
        action.cut = 1 + torn_rng_.next_below(
                             static_cast<std::uint32_t>(frame_size - 1));
        ++stats_.torn_frames;
        record("torn-frame cut=", action.cut);
    } else if (clen) {
        action.kind = WireAction::Kind::CorruptLength;
        ++stats_.corrupt_lengths;
        record("corrupt-length frame_size=", frame_size);
    } else if (cpay && payload_size > 0) {
        // Flip a byte in the payload's numeric header region: the frame
        // still parses as a frame but its fields are provably garbage, so
        // the coordinator detects it instead of merging wrong data.
        action.kind = WireAction::Kind::CorruptPayload;
        action.offset = cpay_rng_.next_below(static_cast<std::uint32_t>(
            payload_size < 8 ? payload_size : std::size_t{8}));
        ++stats_.corrupt_payloads;
        record("corrupt-payload offset=", action.offset);
    } else if (drop) {
        action.kind = WireAction::Kind::Drop;
        ++stats_.dropped_frames;
        record("drop-frame size=", frame_size);
    } else if (delay) {
        action.kind = WireAction::Kind::Delay;
        action.delay_ms = spec_.delay_ms;
        ++stats_.delayed_frames;
        record("delay-frame ms=", static_cast<std::uint64_t>(spec_.delay_ms));
    }
    return action;
}

bool ChaosPlan::next_hang() {
    const bool hang = hang_rng_.next_double() < spec_.hang_prob;
    if (hang) {
        ++stats_.hangs;
        record("hang at-batch=", stats_.slow_batches + stats_.hangs);
    }
    return hang;
}

bool ChaosPlan::next_slow() {
    const bool slow = slow_rng_.next_double() < spec_.slow_batch_prob;
    if (slow) {
        ++stats_.slow_batches;
        record("slow-batch ms=", static_cast<std::uint64_t>(spec_.slow_ms));
    }
    return slow;
}

bool ChaosPlan::crash_now(CrashPhase phase) {
    if (phase == CrashPhase::None || phase != spec_.crash_phase) return false;
    ++crash_opportunities_;
    if (crash_opportunities_ != spec_.crash_after) return false;
    ++stats_.crashes;
    record(crash_phase_name(phase), crash_opportunities_);
    return true;
}

bool ChaosPlan::tear_checkpoint_now() {
    if (spec_.checkpoint_tear_after == 0) return false;
    ++checkpoint_appends_;
    if (checkpoint_appends_ != spec_.checkpoint_tear_after) return false;
    ++stats_.checkpoint_tears;
    record("checkpoint-tear append=", checkpoint_appends_);
    return true;
}

bool apply_wire_action(const WireAction& action, int fd, std::uint8_t type,
                       std::string_view payload) {
    switch (action.kind) {
        case WireAction::Kind::None: {
            write_frame(fd, static_cast<MsgType>(type), payload);
            return true;
        }
        case WireAction::Kind::Torn: {
            const std::string frame = frame_bytes(type, payload);
            const std::size_t cut =
                action.cut < frame.size() ? action.cut : frame.size() - 1;
            write_all_or_throw(fd, frame.data(), cut);
            return false;  // the writer must now act dead
        }
        case WireAction::Kind::CorruptLength: {
            std::string frame = frame_bytes(type, payload);
            // Top bit of the u32 length: the decoded length lands far above
            // kMaxFramePayload, so the reader always rejects the stream.
            frame[3] = static_cast<char>(frame[3] ^ char(0x80));
            write_all_or_throw(fd, frame.data(), frame.size());
            return true;
        }
        case WireAction::Kind::CorruptPayload: {
            std::string frame = frame_bytes(type, payload);
            frame[5 + action.offset] =
                static_cast<char>(frame[5 + action.offset] ^ char(0x80));
            write_all_or_throw(fd, frame.data(), frame.size());
            return true;
        }
        case WireAction::Kind::Drop:
            return true;
        case WireAction::Kind::Delay: {
            ::poll(nullptr, 0, action.delay_ms);
            write_frame(fd, static_cast<MsgType>(type), payload);
            return true;
        }
    }
    return true;
}

std::string encode_chaos(const ChaosSpec& spec, std::uint64_t seed) {
    if (!spec.any_worker()) return {};
    std::string out = "chaos " + std::to_string(seed);
    out += ' ' + fmt_prob(spec.torn_frame_prob);
    out += ' ' + fmt_prob(spec.corrupt_length_prob);
    out += ' ' + fmt_prob(spec.corrupt_payload_prob);
    out += ' ' + fmt_prob(spec.delay_frame_prob);
    out += ' ' + std::to_string(spec.delay_ms);
    out += ' ' + fmt_prob(spec.drop_frame_prob);
    out += ' ' + fmt_prob(spec.hang_prob);
    out += ' ' + fmt_prob(spec.slow_batch_prob);
    out += ' ' + std::to_string(spec.slow_ms);
    out += ' ' + std::string(crash_phase_name(spec.crash_phase));
    out += ' ' + std::to_string(spec.crash_after);
    return out;
}

namespace {

std::vector<std::string> split_tokens(std::string_view text) {
    std::vector<std::string> tokens;
    std::size_t pos = 0;
    while (pos < text.size()) {
        while (pos < text.size() && text[pos] == ' ') ++pos;
        std::size_t end = pos;
        while (end < text.size() && text[end] != ' ') ++end;
        if (end > pos) tokens.emplace_back(text.substr(pos, end - pos));
        pos = end;
    }
    return tokens;
}

double parse_prob(const std::string& token) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == token.c_str() || *end != '\0' || v < 0.0 ||
        v > 1.0)
        throw std::runtime_error("bad chaos probability '" + token + "'");
    return v;
}

std::uint64_t parse_u64_token(const std::string& token) {
    errno = 0;
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(token.c_str(), &end, 10);
    if (errno != 0 || end == token.c_str() || *end != '\0')
        throw std::runtime_error("bad chaos integer '" + token + "'");
    return v;
}

}  // namespace

std::pair<ChaosSpec, std::uint64_t> parse_chaos(std::string_view text) {
    const std::vector<std::string> t = split_tokens(text);
    if (t.size() != 12)
        throw std::runtime_error("chaos config expects 12 tokens, got " +
                                 std::to_string(t.size()));
    ChaosSpec spec;
    const std::uint64_t seed = parse_u64_token(t[0]);
    spec.torn_frame_prob = parse_prob(t[1]);
    spec.corrupt_length_prob = parse_prob(t[2]);
    spec.corrupt_payload_prob = parse_prob(t[3]);
    spec.delay_frame_prob = parse_prob(t[4]);
    spec.delay_ms = static_cast<int>(parse_u64_token(t[5]));
    spec.drop_frame_prob = parse_prob(t[6]);
    spec.hang_prob = parse_prob(t[7]);
    spec.slow_batch_prob = parse_prob(t[8]);
    spec.slow_ms = static_cast<int>(parse_u64_token(t[9]));
    spec.crash_phase = parse_crash_phase(t[10]);
    spec.crash_after = parse_u64_token(t[11]);
    return {spec, seed};
}

std::uint64_t worker_chaos_seed(std::uint64_t seed, int slot, int generation) {
    return mix(seed, 0x10000ULL + static_cast<std::uint64_t>(slot) * 257ULL +
                         static_cast<std::uint64_t>(generation));
}

}  // namespace refpga::svc
