// JSON for the whole tree: one strict parser, the string escaper, and the
// number readers and writer that job specs and outcome lines share (the
// decimal reader also reads the campaign service's frame payload fields).
//
// Job specs arrive as JSON documents (job files), the campaign service's
// outcome lines are JSON objects, and tests validate rendered reports; all
// need a real parser, not string probing. This is a small recursive-descent
// parser over the full JSON grammar (objects, arrays, strings with escapes,
// numbers, booleans, null) with two deliberate restrictions: documents are
// parsed eagerly into a DOM (every document is small) and \u escapes outside
// the Basic Latin range are rejected (the tree never produces them). Any
// syntax error throws JsonError with the byte offset.
//
// Doubles that must survive a round trip bit-exactly travel as C99 hexfloat
// strings ("%a", e.g. "0x1.91eb851eb851fp-1"): hexfloat() writes them and
// parse_hexfloat() reads them back to the identical bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace refpga {

class JsonError : public std::runtime_error {
public:
    explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /// Members in document order (duplicate keys rejected at parse time).
    std::vector<std::pair<std::string, JsonValue>> object;

    /// Object member lookup; nullptr when absent (or not an object).
    [[nodiscard]] const JsonValue* find(std::string_view key) const;

    // Checked accessors: throw JsonError when the kind does not match.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const std::vector<JsonValue>& as_array() const;

    [[nodiscard]] bool is(Kind k) const { return kind == k; }
};

/// Parses one complete JSON document; trailing non-whitespace throws.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// JSON string body: quote, backslash, \n and \t get their short escapes,
/// other control bytes become \u00xx, everything else passes through.
[[nodiscard]] std::string json_escape(std::string_view text);

/// `v` as a C99 hexfloat ("%a"), which parse_hexfloat reads back bit-exactly.
[[nodiscard]] std::string hexfloat(double v);

/// Reads a whole string as a number with strtod (a hexfloat, or decimal, or
/// strtod's "inf" and "nan"); throws JsonError "malformed number '<text>'"
/// unless every byte is consumed.
[[nodiscard]] double parse_hexfloat(const std::string& text);

/// The JSON number `v` as a T, checked. Throws JsonError "expected number"
/// for another kind, "expected integer" for a fraction, and "integer out of
/// range" outside T or beyond ±(2^53 − 1): past that a double no longer
/// holds every integer, so the value read may not be the one written.
template <std::integral T>
[[nodiscard]] T json_integer(const JsonValue& v) {
    constexpr double kExact = 9007199254740991.0;  // 2^53 - 1
    constexpr double lo =
        std::max(static_cast<double>(std::numeric_limits<T>::min()), -kExact);
    constexpr double hi =
        std::min(static_cast<double>(std::numeric_limits<T>::max()), kExact);
    const double d = v.as_number();
    if (std::floor(d) != d) throw JsonError("expected integer");
    // Checked before the cast: converting an out-of-range double to an
    // integer is undefined behaviour.
    if (d < lo || d > hi) throw JsonError("integer out of range");
    return static_cast<T>(d);
}

/// Reads `text` as an unsigned decimal: digits only (no sign, no spaces),
/// the full 64-bit range, no wrap-around. Returns std::errc::invalid_argument
/// for an empty text or a byte that is not a digit, result_out_of_range past
/// 2^64 − 1 (whichever comes first), and std::errc{} with `out` set.
[[nodiscard]] std::errc parse_decimal(std::string_view text, std::uint64_t& out);

}  // namespace refpga
