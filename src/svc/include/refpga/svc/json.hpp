// Minimal strict JSON parser for the campaign service.
//
// Job specs arrive as JSON documents (job files) and tests
// validate rendered reports; both need a real parser, not string probing.
// This is a small recursive-descent parser over the full JSON grammar
// (objects, arrays, strings with escapes, numbers, booleans, null) with two
// deliberate restrictions: documents are parsed eagerly into a DOM (job
// specs are tiny) and \u escapes outside the Basic Latin range are rejected
// (the service never produces them). Any syntax error throws JsonError with
// the byte offset.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace refpga::svc {

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

}  // namespace refpga::svc
