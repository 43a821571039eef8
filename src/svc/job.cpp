#include "refpga/svc/job.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "refpga/svc/json.hpp"

namespace refpga::svc {

app::SystemVariant parse_variant(const std::string& name) {
    for (const auto v : {app::SystemVariant::Software, app::SystemVariant::MonolithicHw,
                         app::SystemVariant::ReconfiguredHw})
        if (name == app::variant_name(v)) return v;
    throw JobError("unknown variant '" + name + "'");
}

fabric::PartName parse_part(const std::string& id) {
    for (const auto p :
         {fabric::PartName::XC3S50, fabric::PartName::XC3S200, fabric::PartName::XC3S400,
          fabric::PartName::XC3S1000, fabric::PartName::XC3S1500,
          fabric::PartName::XC3S2000, fabric::PartName::XC3S4000,
          fabric::PartName::XC3S5000})
        if (id == fabric::part(p).id) return p;
    throw JobError("unknown part '" + id + "'");
}

fleet::PortKind parse_port(const std::string& name) {
    for (const auto k : {fleet::PortKind::Jcap, fleet::PortKind::JcapAccelerated,
                         fleet::PortKind::Icap, fleet::PortKind::SelectMap})
        if (name == fleet::port_kind_name(k)) return k;
    throw JobError("unknown config port '" + name + "'");
}

std::uint64_t parse_seed(const std::string& text, const std::string& key) {
    if (text.empty()) throw JobError(key + ": empty seed");
    std::uint64_t out = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            throw JobError(key + ": malformed seed '" + text + "'");
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (out > (UINT64_MAX - digit) / 10)
            throw JobError(key + ": seed '" + text + "' overflows 64 bits");
        out = out * 10 + digit;
    }
    return out;
}

namespace {

// Doubles travel as hexfloat strings ("0x1.999999999999ap-4") so the
// canonical document survives any locale or printf quirk bit-exactly.
std::string hex_double(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

double parse_hex_double(const JsonValue& v, const char* key) {
    if (v.is(JsonValue::Kind::Number)) return v.number;  // plain JSON accepted
    if (!v.is(JsonValue::Kind::String))
        throw JobError(std::string(key) + ": expected number or hexfloat string");
    const std::string& s = v.string;
    const char* begin = s.c_str();
    char* end = nullptr;
    const double parsed = std::strtod(begin, &end);
    if (end == begin || *end != '\0')
        throw JobError(std::string(key) + ": malformed number '" + s + "'");
    return parsed;
}

std::vector<double> double_list(const JsonValue& v, const char* key) {
    std::vector<double> out;
    for (const JsonValue& e : v.as_array()) out.push_back(parse_hex_double(e, key));
    return out;
}

int int_value(const JsonValue& v, const char* key) {
    const double d = v.as_number();
    if (std::floor(d) != d) throw JobError(std::string(key) + ": expected integer");
    // Checked before the cast: converting an out-of-range double to int is
    // undefined behaviour.
    if (d < std::numeric_limits<int>::min() || d > std::numeric_limits<int>::max())
        throw JobError(std::string(key) + ": integer out of range");
    return static_cast<int>(d);
}

std::uint64_t u64_value(const JsonValue& v, const char* key) {
    // Seeds round-trip as decimal strings: 2^53 < seed values exist.
    if (v.is(JsonValue::Kind::String)) return parse_seed(v.string, key);
    const double d = v.as_number();
    if (d < 0 || std::floor(d) != d)
        throw JobError(std::string(key) + ": expected unsigned integer");
    // JSON numbers arrive as doubles, which hold every integer only below
    // 2^53: a larger one may already be rounded to a different seed.
    if (d >= 9007199254740992.0)
        throw JobError(std::string(key) +
                       ": numeric seeds must be below 2^53; give the seed as a "
                       "decimal string, e.g. \"18446744073709551615\"");
    return static_cast<std::uint64_t>(d);
}

void append_string_list(std::string& out, const char* key,
                        const std::vector<std::string>& values) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += values[i];
        out += '"';
    }
    out += ']';
}

void append_double_list(std::string& out, const char* key,
                        const std::vector<double>& values) {
    out += '"';
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += hex_double(values[i]);
        out += '"';
    }
    out += ']';
}

}  // namespace

JobSpec JobSpec::from_json(const std::string& text) {
    JsonValue doc;
    try {
        doc = parse_json(text);
    } catch (const JsonError& e) {
        throw JobError(std::string("job spec: ") + e.what());
    }
    if (!doc.is(JsonValue::Kind::Object))
        throw JobError("job spec: document is not an object");

    JobSpec spec;
    for (const auto& [key, value] : doc.object) {
        if (key == "variants") {
            spec.variants.clear();
            for (const JsonValue& e : value.as_array())
                spec.variants.push_back(parse_variant(e.as_string()));
        } else if (key == "parts") {
            spec.parts.clear();
            for (const JsonValue& e : value.as_array())
                spec.parts.push_back(parse_part(e.as_string()));
        } else if (key == "ports") {
            spec.ports.clear();
            for (const JsonValue& e : value.as_array())
                spec.ports.push_back(parse_port(e.as_string()));
        } else if (key == "noise_levels") {
            spec.noise_levels = double_list(value, "noise_levels");
        } else if (key == "upset_rates") {
            spec.upset_rates = double_list(value, "upset_rates");
        } else if (key == "fault") {
            if (!value.is(JsonValue::Kind::Object))
                throw JobError("fault: expected object");
            for (const auto& [fkey, fvalue] : value.object) {
                if (fkey == "load_corruption_prob")
                    spec.fault_defaults.load_corruption_prob =
                        parse_hex_double(fvalue, "fault.load_corruption_prob");
                else if (fkey == "flash_error_prob")
                    spec.fault_defaults.flash_error_prob =
                        parse_hex_double(fvalue, "fault.flash_error_prob");
                else if (fkey == "glitch_prob_per_cycle")
                    spec.fault_defaults.glitch_prob_per_cycle =
                        parse_hex_double(fvalue, "fault.glitch_prob_per_cycle");
                else
                    throw JobError("fault: unknown key '" + fkey + "'");
            }
        } else if (key == "fills") {
            spec.fills.clear();
            for (const JsonValue& e : value.as_array()) {
                if (!e.is(JsonValue::Kind::Object))
                    throw JobError("fills: expected objects");
                fleet::FillProfile fill;
                for (const auto& [fkey, fvalue] : e.object) {
                    if (fkey == "start")
                        fill.start_level = parse_hex_double(fvalue, "fills.start");
                    else if (fkey == "end")
                        fill.end_level = parse_hex_double(fvalue, "fills.end");
                    else
                        throw JobError("fills: unknown key '" + fkey + "'");
                }
                spec.fills.push_back(fill);
            }
        } else if (key == "cycles") {
            spec.cycles = int_value(value, "cycles");
        } else if (key == "campaign_seed") {
            spec.campaign_seed = u64_value(value, "campaign_seed");
        } else if (key == "stream_block_ticks") {
            spec.stream_block_ticks = int_value(value, "stream_block_ticks");
            if (spec.stream_block_ticks <= 0)
                throw JobError("stream_block_ticks: must be positive");
        } else {
            throw JobError("job spec: unknown key '" + key + "'");
        }
    }
    try {
        spec.validate();
    } catch (const std::invalid_argument& e) {
        throw JobError(e.what());
    }
    return spec;
}

std::string JobSpec::canonical_json() const {
    std::string out = "{";

    std::vector<std::string> names;
    for (const auto v : variants) names.emplace_back(app::variant_name(v));
    append_string_list(out, "variants", names);

    names.clear();
    for (const auto p : parts) names.emplace_back(fabric::part(p).id);
    out += ',';
    append_string_list(out, "parts", names);

    names.clear();
    for (const auto k : ports) names.emplace_back(fleet::port_kind_name(k));
    out += ',';
    append_string_list(out, "ports", names);

    out += ',';
    append_double_list(out, "noise_levels", noise_levels);
    out += ',';
    append_double_list(out, "upset_rates", upset_rates);

    out += ",\"fault\":{\"load_corruption_prob\":\"" +
           hex_double(fault_defaults.load_corruption_prob) +
           "\",\"flash_error_prob\":\"" + hex_double(fault_defaults.flash_error_prob) +
           "\",\"glitch_prob_per_cycle\":\"" +
           hex_double(fault_defaults.glitch_prob_per_cycle) + "\"}";

    out += ",\"fills\":[";
    for (std::size_t i = 0; i < fills.size(); ++i) {
        if (i > 0) out += ',';
        out += "{\"start\":\"" + hex_double(fills[i].start_level) + "\",\"end\":\"" +
               hex_double(fills[i].end_level) + "\"}";
    }
    out += ']';

    out += ",\"cycles\":" + std::to_string(cycles);
    out += ",\"campaign_seed\":\"" + std::to_string(campaign_seed) + "\"";
    out += ",\"stream_block_ticks\":" + std::to_string(stream_block_ticks);
    out += '}';
    return out;
}

std::uint64_t JobSpec::fingerprint() const {
    const std::string doc = canonical_json();
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
    for (const char c : doc) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;  // FNV prime
    }
    return hash;
}

}  // namespace refpga::svc
