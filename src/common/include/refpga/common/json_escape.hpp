// JSON string-body escaping, shared by the campaign report, the outcome
// codec and the observability exports.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace refpga {

/// Quote, backslash, \n and \t get their short escapes, other control bytes
/// become \u00xx, everything else passes through.
[[nodiscard]] inline std::string json_escape(std::string_view text) {
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

}  // namespace refpga
