#include "refpga/common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace refpga {

const JsonValue* JsonValue::find(std::string_view key) const {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [name, value] : object)
        if (name == key) return &value;
    return nullptr;
}

bool JsonValue::as_bool() const {
    if (kind != Kind::Bool) throw JsonError("expected boolean");
    return boolean;
}

double JsonValue::as_number() const {
    if (kind != Kind::Number) throw JsonError("expected number");
    return number;
}

const std::string& JsonValue::as_string() const {
    if (kind != Kind::String) throw JsonError("expected string");
    return string;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
    if (kind != Kind::Array) throw JsonError("expected array");
    return array;
}

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue document() {
        JsonValue v = value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing bytes after document");
        return v;
    }

private:
    JsonValue value() {
        skip_ws();
        if (pos_ >= text_.size()) fail("unexpected end of document");
        switch (text_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string_value();
            case 't':
            case 'f': return boolean();
            case 'n': return null();
            default: return number();
        }
    }

    JsonValue object() {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            if (peek() != '"') fail("expected object key");
            std::string key = parse_string();
            for (const auto& [name, _] : v.object)
                if (name == key) fail("duplicate object key '" + key + "'");
            skip_ws();
            if (peek() != ':') fail("expected ':'");
            ++pos_;
            v.object.emplace_back(std::move(key), value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            fail("expected ',' or '}'");
        }
    }

    JsonValue array() {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            fail("expected ',' or ']'");
        }
    }

    JsonValue string_value() {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = parse_string();
        return v;
    }

    std::string parse_string() {
        ++pos_;  // '"'
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control byte in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad \\u escape digit");
                    }
                    if (code > 0xff)
                        fail("\\u escape beyond Basic Latin is unsupported");
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    JsonValue boolean() {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (text_.substr(pos_, 4) == "true") {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.substr(pos_, 5) == "false") {
            v.boolean = false;
            pos_ += 5;
        } else {
            fail("expected boolean");
        }
        return v;
    }

    JsonValue null() {
        if (text_.substr(pos_, 4) != "null") fail("expected null");
        pos_ += 4;
        return JsonValue{};
    }

    JsonValue number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) fail("expected value");
        const std::string digits(text_.substr(start, pos_ - start));
        const char* begin = digits.c_str();
        char* end = nullptr;
        const double parsed = std::strtod(begin, &end);
        if (end == begin || *end != '\0') fail("malformed number '" + digits + "'");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = parsed;
        return v;
    }

    [[nodiscard]] char peek() const {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r'))
            ++pos_;
    }

    [[noreturn]] void fail(const std::string& why) const {
        throw JsonError("JSON byte " + std::to_string(pos_) + ": " + why);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).document(); }

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string hexfloat(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

double parse_hexfloat(const std::string& text) {
    const char* begin = text.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0')
        throw JsonError("malformed number '" + text + "'");
    return v;
}

std::errc parse_decimal(std::string_view text, std::uint64_t& out) {
    if (text.empty()) return std::errc::invalid_argument;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') return std::errc::invalid_argument;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10) return std::errc::result_out_of_range;
        value = value * 10 + digit;
    }
    out = value;
    return {};
}

}  // namespace refpga
