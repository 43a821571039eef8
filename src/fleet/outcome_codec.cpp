#include "refpga/fleet/outcome_codec.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "refpga/common/json_escape.hpp"

namespace refpga::fleet {

namespace {

std::string hexfloat(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

void append_string(std::ostringstream& os, const char* key,
                   const std::string& value) {
    os << "\"" << key << "\":\"" << json_escape(value) << "\"";
}

void append_double(std::ostringstream& os, const char* key, double value) {
    os << "\"" << key << "\":\"" << hexfloat(value) << "\"";
}

/// Sequential scanner over one encoded line. Every expectation that fails
/// throws CodecError with the position, so a corrupt checkpoint or wire
/// frame is diagnosable rather than silently misread.
class Scanner {
public:
    explicit Scanner(std::string_view text) : text_(text) {}

    void expect(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal)
            fail(std::string("expected '") + std::string(literal) + "'");
        pos_ += literal.size();
    }

    [[nodiscard]] std::string quoted_string() {
        expect("\"");
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                        else fail("bad \\u escape digit");
                    }
                    // The encoder only emits \u00xx for control bytes.
                    if (code > 0xff) fail("unsupported \\u escape");
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    [[nodiscard]] double hex_double() {
        const std::string text = quoted_string();
        const char* begin = text.c_str();
        char* end = nullptr;
        const double v = std::strtod(begin, &end);
        if (end == begin || *end != '\0') fail("bad hexfloat '" + text + "'");
        return v;
    }

    [[nodiscard]] long long integer() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
            ++pos_;
        if (pos_ == start) fail("expected integer");
        const std::string digits(text_.substr(start, pos_ - start));
        errno = 0;
        char* end = nullptr;
        const long long v = std::strtoll(digits.c_str(), &end, 10);
        if (errno != 0 || end == digits.c_str() || *end != '\0')
            fail("integer out of range");
        return v;
    }

    [[nodiscard]] std::uint64_t unsigned64() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
            ++pos_;
        if (pos_ == start) fail("expected unsigned integer");
        const std::string digits(text_.substr(start, pos_ - start));
        errno = 0;
        char* end = nullptr;
        const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
        if (errno != 0) fail("unsigned integer out of range");
        return v;
    }

    [[nodiscard]] bool boolean() {
        if (text_.substr(pos_, 4) == "true") {
            pos_ += 4;
            return true;
        }
        if (text_.substr(pos_, 5) == "false") {
            pos_ += 5;
            return false;
        }
        fail("expected boolean");
        return false;
    }

    void expect_end() {
        if (pos_ != text_.size()) fail("trailing bytes after outcome object");
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        throw CodecError("outcome line byte " + std::to_string(pos_) + ": " + why);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

std::string encode_outcome_line(const ScenarioOutcome& o) {
    const Scenario& s = o.scenario;
    std::ostringstream os;
    os << "{";
    append_string(os, "name", s.name);
    os << ",\"variant\":" << static_cast<int>(s.variant)
       << ",\"part\":" << static_cast<int>(s.part)
       << ",\"port\":" << static_cast<int>(s.port) << ",";
    append_double(os, "fill_start", s.fill.start_level);
    os << ",";
    append_double(os, "fill_end", s.fill.end_level);
    os << ",";
    append_double(os, "noise_rms_v", s.noise_rms_v);
    os << ",";
    append_double(os, "upset_rate", s.fault.upset_rate_per_column_s);
    os << ",";
    append_double(os, "load_corruption_prob", s.fault.load_corruption_prob);
    os << ",";
    append_double(os, "flash_error_prob", s.fault.flash_error_prob);
    os << ",";
    append_double(os, "glitch_prob_per_cycle", s.fault.glitch_prob_per_cycle);
    os << ",\"cycles\":" << s.cycles << ",\"seed\":" << s.seed
       << ",\"ok\":" << (o.ok ? "true" : "false") << ",";
    append_string(os, "error", o.error);
    os << ",";
    append_double(os, "level_error_mean", o.level_error_mean);
    os << ",";
    append_double(os, "level_error_max", o.level_error_max);
    os << ",";
    append_double(os, "cycle_busy_ms", o.cycle_busy_ms);
    os << ",";
    append_double(os, "reconfig_ms_per_cycle", o.reconfig_ms_per_cycle);
    os << ",";
    append_double(os, "static_mw", o.static_mw);
    os << ",";
    append_double(os, "dynamic_mw", o.dynamic_mw);
    os << ",";
    append_double(os, "reconfig_energy_mj", o.reconfig_energy_mj);
    os << ",\"upsets_injected\":" << o.upsets_injected
       << ",\"upsets_detected\":" << o.upsets_detected
       << ",\"columns_repaired\":" << o.columns_repaired
       << ",\"load_retries\":" << o.load_retries
       << ",\"load_failures\":" << o.load_failures
       << ",\"rejected_cycles\":" << o.rejected_cycles
       << ",\"fallback_cycles\":" << o.fallback_cycles << ",";
    append_double(os, "availability", o.availability);
    os << ",";
    append_double(os, "mttd_ms", o.mttd_ms);
    os << ",";
    append_double(os, "mttr_ms", o.mttr_ms);
    os << ",";
    append_double(os, "scrub_ms_per_cycle", o.scrub_ms_per_cycle);
    os << ",\"resident_slices\":" << o.resident_slices << ",";
    append_string(os, "fitted_part", o.fitted_part);
    os << ",\"device_fits\":" << (o.device_fits ? "true" : "false") << "}";
    return os.str();
}

ScenarioOutcome decode_outcome_line(std::string_view line) {
    Scanner in(line);
    ScenarioOutcome o;
    Scenario& s = o.scenario;

    const auto ranged_int = [&](long long v, long long lo, long long hi,
                                const char* what) {
        if (v < lo || v > hi)
            throw CodecError(std::string(what) + " out of range: " +
                             std::to_string(v));
        return static_cast<int>(v);
    };

    in.expect("{\"name\":");
    s.name = in.quoted_string();
    in.expect(",\"variant\":");
    s.variant = static_cast<app::SystemVariant>(
        ranged_int(in.integer(), 0, 2, "variant"));
    in.expect(",\"part\":");
    s.part = static_cast<fabric::PartName>(
        ranged_int(in.integer(), 0,
                   static_cast<int>(fabric::PartName::XC3S5000), "part"));
    in.expect(",\"port\":");
    s.port = static_cast<PortKind>(ranged_int(in.integer(), 0, 3, "port"));
    in.expect(",\"fill_start\":");
    s.fill.start_level = in.hex_double();
    in.expect(",\"fill_end\":");
    s.fill.end_level = in.hex_double();
    in.expect(",\"noise_rms_v\":");
    s.noise_rms_v = in.hex_double();
    in.expect(",\"upset_rate\":");
    s.fault.upset_rate_per_column_s = in.hex_double();
    in.expect(",\"load_corruption_prob\":");
    s.fault.load_corruption_prob = in.hex_double();
    in.expect(",\"flash_error_prob\":");
    s.fault.flash_error_prob = in.hex_double();
    in.expect(",\"glitch_prob_per_cycle\":");
    s.fault.glitch_prob_per_cycle = in.hex_double();
    in.expect(",\"cycles\":");
    // Any int: a failed outcome carries its scenario as given, and a worker
    // encodes every outcome the runner returns.
    s.cycles = ranged_int(in.integer(), INT_MIN, INT_MAX, "cycles");
    in.expect(",\"seed\":");
    s.seed = in.unsigned64();
    in.expect(",\"ok\":");
    o.ok = in.boolean();
    in.expect(",\"error\":");
    o.error = in.quoted_string();
    in.expect(",\"level_error_mean\":");
    o.level_error_mean = in.hex_double();
    in.expect(",\"level_error_max\":");
    o.level_error_max = in.hex_double();
    in.expect(",\"cycle_busy_ms\":");
    o.cycle_busy_ms = in.hex_double();
    in.expect(",\"reconfig_ms_per_cycle\":");
    o.reconfig_ms_per_cycle = in.hex_double();
    in.expect(",\"static_mw\":");
    o.static_mw = in.hex_double();
    in.expect(",\"dynamic_mw\":");
    o.dynamic_mw = in.hex_double();
    in.expect(",\"reconfig_energy_mj\":");
    o.reconfig_energy_mj = in.hex_double();
    in.expect(",\"upsets_injected\":");
    o.upsets_injected = in.integer();
    in.expect(",\"upsets_detected\":");
    o.upsets_detected = in.integer();
    in.expect(",\"columns_repaired\":");
    o.columns_repaired = in.integer();
    in.expect(",\"load_retries\":");
    o.load_retries = in.integer();
    in.expect(",\"load_failures\":");
    o.load_failures = in.integer();
    in.expect(",\"rejected_cycles\":");
    o.rejected_cycles = in.integer();
    in.expect(",\"fallback_cycles\":");
    o.fallback_cycles = in.integer();
    in.expect(",\"availability\":");
    o.availability = in.hex_double();
    in.expect(",\"mttd_ms\":");
    o.mttd_ms = in.hex_double();
    in.expect(",\"mttr_ms\":");
    o.mttr_ms = in.hex_double();
    in.expect(",\"scrub_ms_per_cycle\":");
    o.scrub_ms_per_cycle = in.hex_double();
    in.expect(",\"resident_slices\":");
    o.resident_slices = static_cast<std::size_t>(in.unsigned64());
    in.expect(",\"fitted_part\":");
    o.fitted_part = in.quoted_string();
    in.expect(",\"device_fits\":");
    o.device_fits = in.boolean();
    in.expect("}");
    in.expect_end();
    return o;
}

}  // namespace refpga::fleet
