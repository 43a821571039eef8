// Deterministic, seed-driven chaos harness for the campaign service.
//
// svc::chaos does to the service layer what refpga::fault does to the
// reconfiguration path: every modelled failure mode is scheduled from an
// independent per-category RNG stream derived from one plan seed, so a run
// with the same (spec, seed) injects the identical fault trace, and
// enabling one category never shifts what another injects. A default
// (all-zero) spec arms nothing: the worker and coordinator then skip the
// chaos layer entirely — the wire bytes, report bytes and checkpoint bytes
// are bit-identical to a build that never heard of chaos.
//
// Categories (the worker side wraps the wire writes and the batch loop; the
// coordinator side wraps checkpoint appends):
//
//   - torn frame: a frame write lands partially and the writer dies
//   - corrupt length: the u32 length prefix is flipped into the invalid
//     range (> kMaxFramePayload), poisoning the stream detectably
//   - corrupt payload: one byte in the payload's numeric header region is
//     flipped out of ASCII, so the frame parses as a protocol violation
//   - delayed frame / dropped frame
//   - hang: the worker stops draining stdin and stops producing (the shape
//     of a wedged process; only the deadline can catch it)
//   - slow batch: a per-batch sleep, the shape of a straggler
//   - crash-at-phase: _exit at PreInit / MidBatch, or a simulated
//     coordinator crash at PreCheckpoint
//   - checkpoint tear: the Nth journal append lands partially and the
//     coordinator "crashes" (run aborts without draining)
//
// Every injection increments a ChaosStats counter and appends a line to a
// bounded trace, so tests can assert a fault actually fired and that two
// same-seed plans injected byte-identical traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "refpga/common/rng.hpp"

namespace refpga::svc {

/// Where a crash-at-phase injection fires. PreInit/MidBatch are worker
/// phases (_exit); PreCheckpoint is coordinator-side (the run aborts right
/// before the Nth journal append, as a crash would).
enum class CrashPhase : std::uint8_t {
    None = 0,
    PreInit,        ///< worker dies before processing Init
    MidBatch,       ///< worker dies after computing a batch, before sending it
    PreCheckpoint,  ///< coordinator "crashes" before a checkpoint append
};

[[nodiscard]] const char* crash_phase_name(CrashPhase phase);
/// Inverse of crash_phase_name; throws std::runtime_error on unknown names.
[[nodiscard]] CrashPhase parse_crash_phase(std::string_view name);

/// Chaos environment of one run. All probabilities default to zero: the
/// default spec injects nothing and arms nothing.
struct ChaosSpec {
    // --- wire faults (per frame written by the worker) ---------------------
    double torn_frame_prob = 0.0;      ///< partial frame write, then death
    double corrupt_length_prob = 0.0;  ///< length prefix flipped invalid
    double corrupt_payload_prob = 0.0; ///< one header byte flipped non-ASCII
    double delay_frame_prob = 0.0;     ///< frame delayed by delay_ms
    int delay_ms = 2;
    double drop_frame_prob = 0.0;      ///< frame silently not written

    // --- lifecycle faults (per batch boundary) -----------------------------
    double hang_prob = 0.0;        ///< stop draining stdin, stop producing
    double slow_batch_prob = 0.0;  ///< sleep slow_ms before the batch
    int slow_ms = 20;

    // --- deterministic (count-scheduled, not probabilistic) ----------------
    CrashPhase crash_phase = CrashPhase::None;
    std::uint64_t crash_after = 1;  ///< fire at the Nth opportunity (1-based)

    /// Coordinator-side: tear the Nth checkpoint append (0 = off). Only the
    /// first checkpoint_tear_bytes of the record land; the run then aborts
    /// as a crash would (workers are killed, nothing is drained).
    std::uint64_t checkpoint_tear_after = 0;
    std::size_t checkpoint_tear_bytes = 7;

    /// Restrict worker-side injection to one worker slot (-1 = all). The
    /// coordinator-side categories ignore this.
    int only_worker = -1;

    [[nodiscard]] bool any() const {
        return torn_frame_prob > 0.0 || corrupt_length_prob > 0.0 ||
               corrupt_payload_prob > 0.0 || delay_frame_prob > 0.0 ||
               drop_frame_prob > 0.0 || hang_prob > 0.0 ||
               slow_batch_prob > 0.0 || crash_phase != CrashPhase::None ||
               checkpoint_tear_after > 0;
    }
    /// True when any worker-side category is armed.
    [[nodiscard]] bool any_worker() const {
        return torn_frame_prob > 0.0 || corrupt_length_prob > 0.0 ||
               corrupt_payload_prob > 0.0 || delay_frame_prob > 0.0 ||
               drop_frame_prob > 0.0 || hang_prob > 0.0 ||
               slow_batch_prob > 0.0 ||
               (crash_phase != CrashPhase::None &&
                crash_phase != CrashPhase::PreCheckpoint);
    }
};

/// Injection tally, one counter per category; tests assert a category
/// actually fired before trusting that the system recovered from it.
struct ChaosStats {
    std::uint64_t torn_frames = 0;
    std::uint64_t corrupt_lengths = 0;
    std::uint64_t corrupt_payloads = 0;
    std::uint64_t delayed_frames = 0;
    std::uint64_t dropped_frames = 0;
    std::uint64_t hangs = 0;
    std::uint64_t slow_batches = 0;
    std::uint64_t crashes = 0;
    std::uint64_t checkpoint_tears = 0;

    [[nodiscard]] std::uint64_t total() const {
        return torn_frames + corrupt_lengths + corrupt_payloads +
               delayed_frames + dropped_frames + hangs + slow_batches +
               crashes + checkpoint_tears;
    }
};

/// One decided wire-level action for a frame about to be written. Exactly
/// one kind applies per frame (precedence: torn > corrupt length > corrupt
/// payload > drop > delay); the draws behind the decision come from
/// independent per-category streams, so disabling one category never shifts
/// another's schedule.
struct WireAction {
    enum class Kind : std::uint8_t {
        None,
        Torn,            ///< write only `cut` bytes of the full frame
        CorruptLength,   ///< flip the top bit of length byte 3
        CorruptPayload,  ///< flip bit 7 of payload byte `offset`
        Drop,            ///< write nothing
        Delay,           ///< sleep delay_ms, then write normally
    };
    Kind kind = Kind::None;
    std::size_t cut = 0;     ///< Torn: bytes of the frame that land
    std::size_t offset = 0;  ///< CorruptPayload: payload byte flipped
    int delay_ms = 0;        ///< Delay: sleep before the write
};

/// Per-process chaos schedule. Deterministic: a pure function of
/// (spec, seed) — same inputs, same injected trace. Not thread-safe.
class ChaosPlan {
public:
    ChaosPlan(ChaosSpec spec, std::uint64_t seed);

    [[nodiscard]] const ChaosSpec& spec() const { return spec_; }
    [[nodiscard]] bool armed() const { return spec_.any(); }

    /// Decides the fate of the next frame of `frame_size` total bytes
    /// (header + payload; payload_size for the corrupt-payload offset).
    [[nodiscard]] WireAction next_wire_action(std::size_t frame_size,
                                              std::size_t payload_size);

    /// Draws whether the worker hangs at this batch boundary.
    [[nodiscard]] bool next_hang();
    /// Draws whether this batch runs slowed by spec().slow_ms.
    [[nodiscard]] bool next_slow();
    /// True when the crash_after-th opportunity of the configured phase has
    /// arrived (counts opportunities internally; deterministic, no RNG).
    [[nodiscard]] bool crash_now(CrashPhase phase);
    /// True when the `n`-th checkpoint append (1-based) must tear.
    [[nodiscard]] bool tear_checkpoint_now();

    [[nodiscard]] const ChaosStats& stats() const { return stats_; }
    /// Bounded human-readable injection log ("torn frame cut=12", ...);
    /// byte-identical across same-seed plans fed the same call sequence.
    [[nodiscard]] const std::vector<std::string>& trace() const { return trace_; }

private:
    void record(const char* what, std::uint64_t detail);

    ChaosSpec spec_;
    ChaosStats stats_;
    std::vector<std::string> trace_;
    std::uint64_t crash_opportunities_ = 0;
    std::uint64_t checkpoint_appends_ = 0;

    Rng torn_rng_;     ///< torn-frame decisions and cut points
    Rng clen_rng_;     ///< corrupt-length decisions
    Rng cpay_rng_;     ///< corrupt-payload decisions and offsets
    Rng delay_rng_;    ///< delayed-frame decisions
    Rng drop_rng_;     ///< dropped-frame decisions
    Rng hang_rng_;     ///< hang decisions
    Rng slow_rng_;     ///< slow-batch decisions
};

/// Applies `action` to one frame write on `fd`: mangles, delays, drops or
/// truncates exactly as decided. Returns false only for a torn write — the
/// writer must then act dead (a worker _exits, simulating death mid-write).
/// Dropped and corrupted frames return true: the writer lives on and the
/// damage surfaces at the reader. Throws WireError on a real I/O failure.
bool apply_wire_action(const WireAction& action, int fd, std::uint8_t type,
                       std::string_view payload);

/// Serializes the worker-relevant part of (spec, seed) for the Init frame's
/// first line ("chaos <seed> <fields...>", doubles as hexfloats). Empty
/// result when no worker-side category is armed — a clean Init line stays
/// byte-identical to a chaos-free build's.
[[nodiscard]] std::string encode_chaos(const ChaosSpec& spec,
                                       std::uint64_t seed);
/// Inverse of encode_chaos; `text` is the token list after the leading
/// "chaos" keyword. Throws std::runtime_error on malformed input.
[[nodiscard]] std::pair<ChaosSpec, std::uint64_t> parse_chaos(
    std::string_view text);

/// Mixes a per-worker chaos seed: distinct per (plan seed, worker slot,
/// restart generation) so a restarted worker replays a fresh — but still
/// deterministic — schedule.
[[nodiscard]] std::uint64_t worker_chaos_seed(std::uint64_t seed, int slot,
                                              int generation);

}  // namespace refpga::svc
