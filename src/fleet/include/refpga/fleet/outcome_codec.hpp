// Bit-exact wire/journal codec for what a scenario measured.
//
// The campaign service streams scenario outcomes from worker processes to
// the coordinator and journals them into checkpoint files as JSON lines. A
// line carries `ok`, `error` and the measured fields of a ScenarioOutcome,
// never its Scenario: every process of a run holds the same expanded grid
// (forked workers inherit it, and the checkpoint's job fingerprint binds a
// journal to it), so the coordinator attaches each outcome's scenario from
// its sweep index. Reports derive summary percentiles from the raw metric
// values, so the codec must round-trip doubles exactly — every
// floating-point field is encoded as a hexfloat string (refpga::hexfloat),
// which strtod parses back to the identical bits.
//
// Format: one single-line JSON object per outcome with its keys in one fixed
// order, read back through the common JSON parser. Encoder and decoder are
// versioned together (kOutcomeCodecVersion, recorded in checkpoint
// headers), and a line that deviates from the expected shape — a missing,
// extra, renamed or reordered key, a wrong value kind, a non-integral or
// out-of-range count — throws CodecError instead of guessing.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "refpga/fleet/campaign.hpp"

namespace refpga::fleet {

/// Bumped whenever encode_outcome_line's format changes; checkpoint files
/// record it so a resume never decodes lines from an incompatible writer
/// (2: lines no longer carry the Scenario).
inline constexpr int kOutcomeCodecVersion = 2;

class CodecError : public std::runtime_error {
public:
    explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// One-line JSON encoding (no trailing newline) of everything in `o` but its
/// scenario. Doubles are hexfloats, so decode_outcome_line reproduces every
/// encoded field of `o` bit-for-bit.
[[nodiscard]] std::string encode_outcome_line(const ScenarioOutcome& o);

/// Strict inverse of encode_outcome_line: the measured fields, with a
/// default Scenario for the caller to fill in. Throws CodecError on any
/// malformed, truncated or out-of-range input.
[[nodiscard]] ScenarioOutcome decode_outcome_line(std::string_view line);

}  // namespace refpga::fleet
