// Campaign job specification: the JSON document that fully describes a
// sharded campaign run.
//
// A JobSpec is a fleet::Sweep plus the front-end streaming block size, with
// a JSON codec. The coordinator expands the grid once, before it forks its
// workers; each worker inherits that expansion and is assigned index ranges
// into it. That keeps Assign frames tiny and guarantees every process
// agrees on scenario -> index.
//
// canonical_json() renders doubles as hexfloat strings so the document —
// and therefore fingerprint(), which checkpoints embed to refuse resuming a
// journal against a different job — is byte-stable across locales and
// formatting quirks.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "refpga/fleet/scenario.hpp"

namespace refpga::svc {

class JobError : public std::runtime_error {
public:
    explicit JobError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses a seed written as a decimal string: digits only, the full 64-bit
/// range, no wrap-around. Throws JobError naming `key`.
[[nodiscard]] std::uint64_t parse_seed(const std::string& text,
                                       const std::string& key);

struct JobSpec : fleet::Sweep {
    int stream_block_ticks = 4096;

    /// Parses a job document and validates its grid (fleet::Sweep::validate);
    /// unknown keys, malformed values and grid-rule violations throw
    /// JobError with the offending key in the message.
    [[nodiscard]] static JobSpec from_json(const std::string& text);

    /// Canonical rendering: fixed key order, doubles as hexfloat strings.
    /// from_json(canonical_json()) round-trips bit-exactly.
    [[nodiscard]] std::string canonical_json() const;

    /// FNV-1a over canonical_json(); checkpoints embed this so a journal is
    /// only ever replayed against the job that wrote it.
    [[nodiscard]] std::uint64_t fingerprint() const;
};

}  // namespace refpga::svc
